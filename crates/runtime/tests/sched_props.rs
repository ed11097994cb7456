//! Seeded property tests for the scheduling policies.
//!
//! These run in tier-1 on the vendored `rand` stub: shapes, gid sets, and
//! seeds are drawn from a fixed-seed `StdRng`, so failures are perfectly
//! reproducible (the case index pins the inputs).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grs_runtime::ids::Gid;
use grs_runtime::{
    PctPolicy, Program, RoundRobinPolicy, RunConfig, Runtime, SchedulePolicy, Strategy,
    TraceHasher,
};

/// Draws a sorted set of distinct — and usually non-contiguous — gids.
fn gen_gids(rng: &mut StdRng) -> Vec<Gid> {
    let n = rng.gen_range(2..8usize);
    let mut raw: Vec<u32> = Vec::with_capacity(n);
    let mut next = 0u32;
    for _ in 0..n {
        next += rng.gen_range(1..7u32); // gaps of 1..6 between ids
        raw.push(next);
    }
    raw.into_iter().map(Gid).collect()
}

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

/// PCT (depth 1: no change points) maintains a strict total priority
/// order: the pick from any runnable subset is the subset's maximum under
/// the order observed by peeling the full set winner-by-winner.
#[test]
fn pct_picks_the_highest_priority_runnable() {
    let mut shape_rng = StdRng::seed_from_u64(0x9c7);
    for case in 0..24 {
        let gids = gen_gids(&mut shape_rng);
        let policy_seed = shape_rng.gen_range(0..1_000_000u64);

        // Recover the policy's total order by peeling winners off the full
        // set with one policy instance...
        let mut rng = StdRng::seed_from_u64(policy_seed);
        let mut peel = PctPolicy::new(1, &mut rng, 1000);
        for &g in &gids {
            peel.register(g, &mut rng);
        }
        let mut remaining = gids.clone();
        let mut order = Vec::with_capacity(gids.len());
        while !remaining.is_empty() {
            let g = peel.pick(&remaining, None, &mut rng);
            assert!(remaining.contains(&g), "case {case}: pick outside set");
            remaining.retain(|&r| r != g);
            order.push(g);
        }

        // ...then check an identically-seeded twin agrees on arbitrary
        // subsets: the pick is always the earliest-in-order member.
        let mut rng2 = StdRng::seed_from_u64(policy_seed);
        let mut policy = PctPolicy::new(1, &mut rng2, 1000);
        for &g in &gids {
            policy.register(g, &mut rng2);
        }
        for _ in 0..12 {
            let subset: Vec<Gid> = gids
                .iter()
                .copied()
                .filter(|_| shape_rng.gen_bool(0.6))
                .collect();
            if subset.is_empty() {
                continue;
            }
            let expected = *order.iter().find(|g| subset.contains(g)).unwrap();
            let picked = policy.pick(&subset, None, &mut rng2);
            assert_eq!(picked, expected, "case {case}: subset {subset:?}");
        }
    }
}

/// Equal priorities break ties toward the higher gid (`max_by_key` on
/// `(priority, gid)`). Priorities are equal across goroutines registered
/// at the same RNG state only by construction here: a policy that never
/// registered anyone assigns everyone the default priority 0.
#[test]
fn pct_breaks_priority_ties_by_gid() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut policy = PctPolicy::new(1, &mut rng, 1000);
    // No registrations: every gid sits at the default priority.
    let runnable = vec![Gid(3), Gid(11), Gid(7)];
    assert_eq!(policy.pick(&runnable, None, &mut rng), Gid(11));
}

/// Every policy must tolerate non-contiguous gid registration (spawn ids
/// are dense in practice, but nothing in the contract says so) and pick
/// only from the runnable set.
#[test]
fn policies_handle_non_contiguous_gids() {
    let mut shape_rng = StdRng::seed_from_u64(0xabcd);
    for case in 0..24 {
        let gids = gen_gids(&mut shape_rng);
        let seed = shape_rng.gen_range(0..1_000_000u64);
        for strategy in [
            Strategy::Random,
            Strategy::Pct { depth: 3 },
            Strategy::RoundRobin,
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut policy = strategy.policy(&mut rng, 1000);
            for &g in &gids {
                policy.register(g, &mut rng);
            }
            let mut current = None;
            for _ in 0..20 {
                let picked = policy.pick(&gids, current, &mut rng);
                assert!(gids.contains(&picked), "case {case} {strategy:?}");
                current = Some(picked);
            }
        }
    }
}

/// Round-robin must rotate: with every goroutine runnable, it never picks
/// the currently running one twice in a row (when alternatives exist).
#[test]
fn round_robin_never_starves_with_full_runnable_set() {
    let mut shape_rng = StdRng::seed_from_u64(0x44);
    for _ in 0..24 {
        let gids = gen_gids(&mut shape_rng);
        let mut rng = StdRng::seed_from_u64(1);
        let mut policy = RoundRobinPolicy::new();
        for &g in &gids {
            policy.register(g, &mut rng);
        }
        let mut current = Some(gids[0]);
        for _ in 0..3 * gids.len() {
            let picked = policy.pick(&gids, current, &mut rng);
            assert_ne!(Some(picked), current);
            current = Some(picked);
        }
    }
}
