//! Seeded property tests for the scheduling policies, through whole runs.
//! (The per-pick properties of each policy are unit tests in `sched.rs`,
//! which reach the private policy enum.)
//!
//! These run in tier-1 on the vendored `rand` stub: shapes and seeds are
//! drawn from a fixed-seed `StdRng`, so failures are perfectly
//! reproducible (the case index pins the inputs).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grs_runtime::{Program, RunConfig, Runtime, Strategy, TraceHasher};

/// A worker-pool program whose step count scales with the shape.
fn pool_program(workers: u8, ops: u8) -> Program {
    Program::new("sched_prop", move |ctx| {
        let x = ctx.cell("x", 0i64);
        let done = ctx.chan::<()>("done", usize::from(workers));
        let mu = ctx.mutex("mu");
        for _ in 0..workers {
            let (x, done, mu) = (x.clone(), done.clone(), mu.clone());
            ctx.go("w", move |ctx| {
                for _ in 0..ops {
                    mu.lock(ctx);
                    ctx.update(&x, |v| v + 1);
                    mu.unlock(ctx);
                }
                done.send(ctx, ());
            });
        }
        for _ in 0..workers {
            let _ = done.recv(ctx);
        }
    })
}

/// Round-robin consumes no randomness at pick time, so the *schedule* of a
/// round-robin run is invariant under the seed — the property that makes
/// [`grs_runtime::calibrate_steps`] a pure function of the program.
#[test]
fn round_robin_schedule_is_seed_invariant() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for case in 0..24 {
        let workers = rng.gen_range(1..5u8);
        let ops = rng.gen_range(1..4u8);
        let p = pool_program(workers, ops);
        let run = |seed: u64| {
            let cfg = RunConfig::with_seed(seed).strategy(Strategy::RoundRobin);
            let (o, events) = Runtime::new(cfg).run(&p, TraceHasher::new());
            (o.schedule, o.steps, events.digest())
        };
        let (a_seed, b_seed) = (rng.gen_range(0..1000u64), rng.gen_range(1000..2000u64));
        assert_eq!(run(a_seed), run(b_seed), "case {case}");
    }
}
