//! The open-loop load generator.
//!
//! Uploaders are independent of the service, so frames are sent on a fixed
//! schedule whether or not earlier ones have completed, and the queue is
//! allowed to grow. One generator thread polls the clock (yielding the CPU
//! between looks) until each frame's due time and submits it; one collector
//! thread waits for the completions in submit order. Both run on the CPU the
//! process is pinned to, beside the system under test. Latency is timed
//! **from the due time**, not from when the generator got round to
//! submitting: a stall anywhere then shows up as latency on every frame it
//! delayed. How late the generator itself ran is reported beside it.
//!
//! A frame the service refuses as `Busy` is either dropped and counted
//! ([`OnBusy::Drop`], the overload steps) or offered again until it is taken
//! ([`OnBusy::Retry`], an uploader that keeps its trace): no frame fails
//! then, and what the refusals cost shows as latency from the due time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A fixed-rate schedule: frame `i` is due `i * interval` after `start`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub interval_ns: u64,
}

impl Schedule {
    pub fn at_rate(start: Instant, frames_per_second: u64) -> Self {
        Schedule {
            start,
            interval_ns: 1_000_000_000 / frames_per_second.max(1),
        }
    }

    /// When frame `i` is due, nanoseconds after `start`.
    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.interval_ns
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// Why a submit did not produce something to wait for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// Explicit backpressure.
    Busy,
    /// Anything else.
    Error,
}

/// What the generator does with a frame refused as [`Refused::Busy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnBusy {
    /// Count it and move on to the next frame.
    Drop,
    /// Yield and submit it again until it is accepted.
    Retry,
}

/// The per-frame samples of one step. A workload allocates these once, for
/// its longest step, and every step refills them: megabyte-sized vectors
/// allocated and freed step by step left the peak RSS to the allocator's
/// mood (glibc moves its mmap threshold on every large free), 41 or 46 MiB
/// on unchanged code.
#[derive(Debug, Default)]
pub struct Samples {
    /// When the collector saw each accepted frame complete, nanoseconds
    /// after the schedule's start, submit order.
    pub completed_at_ns: Vec<u64>,
    /// Due time to completion for every accepted frame, submit order.
    pub latency_ns: Vec<u64>,
    /// Due time to the moment the generator began submitting, per frame.
    pub late_ns: Vec<u64>,
}

impl Samples {
    pub fn with_capacity(frames: u64) -> Self {
        let vec = || Vec::with_capacity(frames as usize);
        Samples {
            completed_at_ns: vec(),
            latency_ns: vec(),
            late_ns: vec(),
        }
    }

    /// Frames accepted and completed per second in each of `slices` equal
    /// parts of `window` (completions after its end count for nothing).
    pub fn goodput_per_s(&self, window: Duration, slices: usize) -> Vec<f64> {
        let width = (window.as_nanos() as u64 / slices as u64).max(1);
        let mut counts = vec![0u64; slices];
        for &at in &self.completed_at_ns {
            if let Some(c) = counts.get_mut((at / width) as usize) {
                *c += 1;
            }
        }
        counts
            .into_iter()
            .map(|c| c as f64 * 1e9 / width as f64)
            .collect()
    }
}

/// What one rate step counted; its samples are in the [`Samples`] it filled.
#[derive(Debug, Default)]
pub struct StepOutcome {
    pub offered: u64,
    pub accepted: u64,
    /// Frames dropped because the service was busy.
    pub busy: u64,
    /// `Busy` answers to frames that were then offered again.
    pub retries: u64,
    pub errors: u64,
    /// Accepted but not yet completed, at the schedule's midpoint and end.
    pub backlog_mid: u64,
    pub backlog_end: u64,
    /// Length of the schedule.
    pub window: Duration,
}

impl StepOutcome {
    /// `Busy` answers, dropped or retried, per frame offered.
    pub fn busy_share(&self) -> f64 {
        (self.busy + self.retries) as f64 / self.offered.max(1) as f64
    }
}

/// Offers `frames` frames on `schedule`, refilling `samples`. `submit(i)`
/// runs on the generator thread; each ticket it returns is handed to
/// `wait(i, ticket)` on the collector thread, which returns whether the
/// frame completed well; the caller only waits.
pub fn run_step<T: Send>(
    schedule: Schedule,
    frames: u64,
    on_busy: OnBusy,
    samples: &mut Samples,
    mut submit: impl FnMut(u64) -> Result<T, Refused> + Send,
    mut wait: impl FnMut(u64, T) -> bool + Send,
) -> StepOutcome {
    let Samples {
        completed_at_ns,
        latency_ns,
        late_ns,
    } = samples;
    completed_at_ns.clear();
    latency_ns.clear();
    late_ns.clear();
    let completed = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<(u64, T)>();
    let window_ns = schedule.due_ns(frames);
    std::thread::scope(|scope| {
        let completed = &completed;
        let collector = scope.spawn(move || {
            let mut errors = 0u64;
            for (i, ticket) in rx {
                let ok = wait(i, ticket);
                let done_ns = schedule.now_ns();
                // A statistic read by the generator for its backlog samples.
                completed.fetch_add(1, Ordering::Relaxed);
                if ok {
                    latency_ns.push(done_ns.saturating_sub(schedule.due_ns(i)));
                    completed_at_ns.push(done_ns);
                } else {
                    errors += 1;
                }
            }
            errors
        });
        let generator = scope.spawn(move || {
            let mut out = StepOutcome {
                offered: frames,
                window: Duration::from_nanos(window_ns),
                ..StepOutcome::default()
            };
            for i in 0..frames {
                let due = schedule.due_ns(i);
                let mut now = schedule.now_ns();
                while now < due {
                    // Yield rather than spin: the collector shares this CPU,
                    // and a generator that never lets go of it would hand the
                    // collector whole scheduler slices late — milliseconds of
                    // latency that are the harness's, not the service's.
                    std::thread::yield_now();
                    now = schedule.now_ns();
                }
                late_ns.push(now - due);
                let answer = loop {
                    match submit(i) {
                        Err(Refused::Busy) if on_busy == OnBusy::Retry => {
                            out.retries += 1;
                            std::thread::yield_now();
                        }
                        answer => break answer,
                    }
                };
                match answer {
                    Ok(ticket) => {
                        out.accepted += 1;
                        tx.send((i, ticket))
                            .expect("the collector outlives the generator");
                    }
                    Err(Refused::Busy) => out.busy += 1,
                    Err(Refused::Error) => out.errors += 1,
                }
                if i + 1 == frames / 2 {
                    out.backlog_mid = out.accepted - completed.load(Ordering::Relaxed);
                }
            }
            out.backlog_end = out.accepted - completed.load(Ordering::Relaxed);
            out
        });
        let mut out = generator.join().expect("generator thread");
        out.errors += collector.join().expect("collector thread");
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin_for(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn latency_is_timed_from_the_due_time_and_lateness_is_reported() {
        // 1 ms apart; submitting frame 0 stalls the generator for 5 ms, so
        // frames 1..=4 fall due while it is stuck.
        let schedule = Schedule {
            start: Instant::now(),
            interval_ns: 1_000_000,
        };
        let mut samples = Samples::default();
        let out = run_step(
            schedule,
            8,
            OnBusy::Drop,
            &mut samples,
            |i| {
                if i == 0 {
                    spin_for(Duration::from_millis(5));
                }
                Ok::<u64, Refused>(i)
            },
            |_, _| true,
        );
        assert_eq!(
            (out.offered, out.accepted, out.busy, out.errors),
            (8, 8, 0, 0)
        );
        assert_eq!(samples.latency_ns.len(), 8);
        // Frame 1 was due at 1 ms and could not be submitted before 5 ms:
        // timed from its due time it waited at least 4 ms, although its own
        // submit-to-completion time was microseconds.
        assert!(
            samples.latency_ns[1] >= 4_000_000,
            "{:?}",
            samples.latency_ns
        );
        assert!(samples.late_ns[1] >= 4_000_000, "{:?}", samples.late_ns);
        // Frame 0 was submitted before the stall, so it was the least late.
        assert!(
            samples.late_ns[0] < samples.late_ns[1],
            "{:?}",
            samples.late_ns
        );
        assert_eq!(out.window, Duration::from_millis(8));
        // All eight completed inside the 8 ms schedule: 1,000 frames/s in
        // all, none of them in the first half of the stall.
        let goodput = samples.goodput_per_s(out.window, 2);
        assert_eq!(goodput.iter().sum::<f64>() / 2.0, 1_000.0);
        assert!(goodput[1] > 0.0);
    }

    #[test]
    fn refusals_are_counted_not_waited_for() {
        let schedule = Schedule::at_rate(Instant::now(), 100_000);
        let mut samples = Samples::default();
        let out = run_step(
            schedule,
            100,
            OnBusy::Drop,
            &mut samples,
            |i| match i % 4 {
                0 => Err(Refused::Busy),
                1 => Err(Refused::Error),
                _ => Ok(i),
            },
            |i, _| i % 4 == 2,
        );
        assert_eq!(out.busy, 25);
        assert_eq!(out.accepted, 50);
        // 25 refused at submit, 25 failed at completion.
        assert_eq!(out.errors, 50);
        assert_eq!(samples.latency_ns.len(), 25);
        assert!((out.busy_share() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn a_retried_frame_is_accepted_and_fails_nothing() {
        // Every frame is refused twice before it is taken.
        let mut refusals_left = 2;
        // Samples left by an earlier step are overwritten, not kept.
        let mut samples = Samples {
            latency_ns: vec![7; 3],
            ..Samples::default()
        };
        let out = run_step(
            Schedule::at_rate(Instant::now(), 100_000),
            50,
            OnBusy::Retry,
            &mut samples,
            |i| {
                if refusals_left > 0 {
                    refusals_left -= 1;
                    return Err(Refused::Busy);
                }
                refusals_left = 2;
                Ok(i)
            },
            |_, _| true,
        );
        assert_eq!(
            (out.accepted, out.busy, out.retries, out.errors),
            (50, 0, 100, 0)
        );
        assert_eq!(samples.latency_ns.len(), 50);
        assert!((out.busy_share() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn schedule_spaces_frames_evenly() {
        let s = Schedule::at_rate(Instant::now(), 50_000);
        assert_eq!(s.interval_ns, 20_000);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(50_000), 1_000_000_000);
    }
}
