//! The run driver: [`Program`], [`RunConfig`], [`Runtime`], [`RunOutcome`].

use std::fmt;
use std::sync::Arc;

use crate::ctx::Ctx;
use crate::depot::StackDepot;
use crate::ids::Gid;
use crate::kernel::Kernel;
use crate::monitor::{Monitor, MonitorStats, NullMonitor};
use crate::sched::{ScheduleTrace, Strategy};

/// A re-runnable simulated Go program: a name plus the main goroutine body.
///
/// Programs are `Fn` (not `FnOnce`) so the same program can be executed
/// under many seeds and strategies — the campaign engine in `grs-fleet`
/// relies on this to hunt interleavings, mirroring how the paper's
/// deployment reruns unit tests daily.
#[derive(Clone)]
pub struct Program {
    name: Arc<str>,
    body: Arc<dyn Fn(&Ctx) + Send + Sync>,
}

impl Program {
    /// Creates a program from its main-goroutine body.
    pub fn new(name: &str, body: impl Fn(&Ctx) + Send + Sync + 'static) -> Self {
        Program {
            name: Arc::from(name),
            body: Arc::new(body),
        }
    }

    /// The program's name (used in reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The main-goroutine body.
    pub fn body(&self) -> &(dyn Fn(&Ctx) + Send + Sync) {
        &*self.body
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program").field("name", &self.name).finish()
    }
}

/// Configuration of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed driving all scheduling randomness.
    pub seed: u64,
    /// Scheduling policy.
    pub strategy: Strategy,
    /// Hard bound on scheduler steps (guards against livelock in simulated
    /// programs; exceeding it aborts the run with
    /// [`RuntimeError::StepBudgetExhausted`]).
    pub max_steps: u64,
    /// Horizon PCT priority-change points are placed against. Should be
    /// the unit's expected step count (see [`calibrate_steps`]); when it
    /// far exceeds the actual run length, the change points land beyond
    /// the run and PCT degenerates to strict-priority scheduling.
    pub pct_steps_hint: u64,
}

impl RunConfig {
    /// A config with the given seed and default strategy/limits.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        RunConfig {
            seed,
            ..RunConfig::default()
        }
    }

    /// Sets the scheduling strategy (builder style).
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the step budget (builder style).
    #[must_use]
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Sets the horizon PCT change points are placed against (builder
    /// style). Pass the unit's observed step count — e.g. from
    /// [`calibrate_steps`] — so short runs keep their change points.
    #[must_use]
    pub fn pct_horizon(mut self, horizon: u64) -> Self {
        self.pct_steps_hint = horizon.max(1);
        self
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 0,
            strategy: Strategy::Random,
            max_steps: 1_000_000,
            pct_steps_hint: 1_000,
        }
    }
}

/// Measures how many scheduler steps `program` takes under the
/// seed-invariant round-robin schedule — the calibrated horizon for PCT
/// change-point placement. Round-robin picks consume no randomness, so
/// the result is a pure function of the program (and the step budget),
/// never of a seed or worker placement.
#[must_use]
pub fn calibrate_steps(program: &Program, max_steps: u64) -> u64 {
    let cfg = RunConfig {
        strategy: Strategy::RoundRobin,
        max_steps,
        ..RunConfig::default()
    };
    let (outcome, _) = Runtime::new(cfg).run(program, NullMonitor);
    outcome.steps.max(1)
}

/// A user-visible error the simulated program committed; the Go analogues
/// are runtime panics or throws.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// `panic: send on closed channel`.
    SendOnClosedChannel {
        /// Channel name.
        channel: String,
    },
    /// `panic: close of closed channel`.
    CloseOfClosedChannel {
        /// Channel name.
        channel: String,
    },
    /// `fatal error: sync: unlock of unlocked mutex`.
    UnlockOfUnlockedMutex {
        /// Mutex name.
        mutex: String,
    },
    /// `panic: sync: negative WaitGroup counter`.
    NegativeWaitGroup {
        /// WaitGroup name.
        waitgroup: String,
    },
    /// A goroutine body panicked.
    GoroutinePanic {
        /// Goroutine name.
        goroutine: String,
        /// Panic message.
        message: String,
    },
    /// The scheduler's step budget ran out (livelock guard).
    StepBudgetExhausted {
        /// The configured budget.
        max_steps: u64,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::SendOnClosedChannel { channel } => {
                write!(f, "send on closed channel {channel}")
            }
            RuntimeError::CloseOfClosedChannel { channel } => {
                write!(f, "close of closed channel {channel}")
            }
            RuntimeError::UnlockOfUnlockedMutex { mutex } => {
                write!(f, "unlock of unlocked mutex {mutex}")
            }
            RuntimeError::NegativeWaitGroup { waitgroup } => {
                write!(f, "negative WaitGroup counter on {waitgroup}")
            }
            RuntimeError::GoroutinePanic { goroutine, message } => {
                write!(f, "goroutine {goroutine} panicked: {message}")
            }
            RuntimeError::StepBudgetExhausted { max_steps } => {
                write!(f, "step budget of {max_steps} exhausted")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Diagnostic for a run where every live goroutine was blocked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockInfo {
    /// `(goroutine, "name: reason")` for each blocked goroutine.
    pub blocked: Vec<(Gid, String)>,
}

impl fmt::Display for DeadlockInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "all goroutines are asleep - deadlock!")?;
        for (gid, what) in &self.blocked {
            writeln!(f, "  {gid} blocked: {what}")?;
        }
        Ok(())
    }
}

/// What happened during one run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Name of the executed program.
    pub program: String,
    /// The seed that produced this interleaving.
    pub seed: u64,
    /// Total scheduler steps taken.
    pub steps: u64,
    /// Number of goroutines created (including main).
    pub goroutines_spawned: usize,
    /// Go-level runtime errors (panics/throws) the program committed.
    pub errors: Vec<RuntimeError>,
    /// Present when the run deadlocked (main blocked, nothing runnable).
    pub deadlock: Option<DeadlockInfo>,
    /// Goroutines still blocked when main finished — Go would leak them
    /// silently (Listing 9's forever-blocked Future sender).
    pub leaked: Vec<(Gid, String)>,
    /// Every scheduling decision the run took, in order.
    pub schedule: ScheduleTrace,
    /// Instrumentation counters: events dispatched, depot contents, peak
    /// shadow words (the §3.5 overhead statistics).
    pub stats: MonitorStats,
}

impl RunOutcome {
    /// True when the run finished with no errors, deadlock, or leaks.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty() && self.deadlock.is_none() && self.leaked.is_empty()
    }
}

/// Executes [`Program`]s deterministically.
///
/// See the crate-level docs for a complete example.
#[derive(Debug, Clone)]
pub struct Runtime {
    config: RunConfig,
}

impl Runtime {
    /// Creates a runtime with the given configuration.
    #[must_use]
    pub fn new(config: RunConfig) -> Self {
        Runtime { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Runs `program` to completion under `monitor`, returning the outcome
    /// and the monitor (with whatever it accumulated — race reports, event
    /// traces, counts). Uses a fresh [`StackDepot`] for the run.
    pub fn run<M: Monitor + 'static>(&self, program: &Program, monitor: M) -> (RunOutcome, M) {
        self.run_with_depot(program, monitor, &StackDepot::new())
    }

    /// Like [`Runtime::run`], but interns stacks into a caller-owned depot,
    /// which is **reset** first (ids must be a deterministic function of
    /// this run alone, or trace digests would depend on what ran before).
    /// Campaign workers pass one depot per shard so its allocations stay
    /// warm across thousands of runs.
    pub fn run_with_depot<M: Monitor + 'static>(
        &self,
        program: &Program,
        mut monitor: M,
        depot: &StackDepot,
    ) -> (RunOutcome, M) {
        depot.reset();
        monitor.on_run_start(depot);
        let kernel = Kernel::new(&self.config, Box::new(monitor), depot.clone());
        let main = Arc::clone(&program.body);
        kernel.drive(Box::new(move |ctx| main(ctx)));
        let (raw, monitor) = kernel.take_outcome();
        let outcome = RunOutcome {
            program: program.name().to_string(),
            seed: self.config.seed,
            steps: raw.steps,
            goroutines_spawned: raw.goroutines_spawned,
            errors: raw.errors,
            deadlock: raw.deadlock,
            leaked: raw.leaked,
            schedule: raw.schedule,
            stats: raw.stats,
        };
        let monitor = *monitor
            .into_any()
            .downcast::<M>()
            .expect("monitor type preserved across the run");
        (outcome, monitor)
    }
}
