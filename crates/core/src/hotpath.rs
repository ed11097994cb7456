//! The event-dense workload of the detector hot path: detection work,
//! not goroutine setup, dominates it. `benchmark/` times it live and
//! through batch replay; `tests/dense_shadow_bound.rs` holds its shadow
//! footprint to O(variables).

use grs_fleet::CampaignUnit;
use grs_runtime::Program;

/// The event-dense benchmark program: a long sequential compute phase
/// (2 000 read-modify-writes across 8 cells under a named frame, so every
/// event carries a two-deep stack) followed by a small channel-joined
/// concurrent tail that exercises the happens-before machinery and the
/// shared-read pruning. Detection work, not goroutine setup, dominates.
fn dense() -> Program {
    Program::new("dense", |ctx| {
        let _f = ctx.frame("ComputePhase");
        let cells: Vec<_> = (0..8).map(|i| ctx.cell(&format!("c{i}"), 0i64)).collect();
        for round in 0..250i64 {
            for cell in &cells {
                ctx.update(cell, |v| v + round);
            }
        }
        let x = ctx.cell("x", 0i64);
        let done = ctx.chan::<()>("done", 2);
        for _ in 0..2 {
            let (x, done) = (x.clone(), done.clone());
            ctx.go("w", move |ctx| {
                let _ = ctx.read(&x);
                done.send(ctx, ());
            });
        }
        for _ in 0..2 {
            let _ = done.recv(ctx);
        }
        ctx.write(&x, 1);
    })
}

/// The dense workload as a campaign unit (race-free: the channel barrier
/// joins both readers before the final write).
#[must_use]
pub fn dense_unit() -> CampaignUnit {
    CampaignUnit {
        name: "dense".into(),
        program: dense(),
        expected_racy: Some(false),
    }
}
