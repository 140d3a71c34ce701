//! Randomized identity tests for the solver hot path (ISSUE 4).
//!
//! The zero-allocation rework is only safe if it is invisible: a reused
//! [`SolverScratch`] must reproduce the fresh-solve path bit-for-bit, the
//! host's steady-state memoization must replay exactly what a recomputation
//! would produce. Same deterministic [`SimRng`] case generation as
//! `tests/proptests.rs`.

use kelp_host::{Actuator, CpuAllocation, HostMachine, Priority, TaskSpec, ThreadProfile};
use kelp_mem::prefetch::{PrefetchProfile, PrefetchSetting};
use kelp_mem::solver::{
    FixedFlow, MemSystem, SolverInput, SolverScratch, SolverTask, SolverTuning, TaskKey,
};
use kelp_mem::topology::{DomainId, MachineSpec, SncMode, SocketId};
use kelp_simcore::rng::SimRng;

const CASES: usize = 64;

/// Runs `body` for `CASES` deterministic cases, each with its own RNG stream.
fn for_cases(seed: u64, mut body: impl FnMut(&mut SimRng)) {
    let mut root = SimRng::seed_from(seed);
    for case in 0..CASES {
        let mut rng = root.fork(case as u64);
        body(&mut rng);
    }
}

fn arb_domain(rng: &mut SimRng) -> DomainId {
    // Occasionally out of range: canonical_domain must absorb it.
    let socket = if rng.below(8) == 0 {
        7
    } else {
        rng.below(2) as usize
    };
    DomainId::new(socket, rng.below(2) as u8)
}

fn arb_task(rng: &mut SimRng, key: usize) -> SolverTask {
    let mut t = SolverTask::local(TaskKey(key), arb_domain(rng), rng.uniform(0.0, 8.0));
    t.compute_ns_per_unit = rng.uniform(0.0, 200.0);
    t.accesses_per_unit = rng.uniform(0.0, 10.0);
    t.mlp = rng.uniform(1.0, 8.0);
    t.working_set_bytes = rng.uniform(0.0, 2e9);
    t.hit_max = rng.uniform(0.0, 1.0);
    t.weight = rng.uniform(0.1, 4.0);
    t.prefetch_profile = if rng.below(2) == 0 {
        PrefetchProfile::streaming()
    } else {
        PrefetchProfile::none()
    };
    if rng.below(4) == 0 {
        t.prefetch_setting = PrefetchSetting::fraction(rng.uniform(0.0, 1.0));
    }
    if rng.below(4) == 0 {
        t.bw_cap_gbps = Some(rng.uniform(1.0, 30.0));
    }
    if rng.below(8) == 0 {
        t.distress_exempt = true;
    }
    let n_data = 1 + rng.below(2) as usize;
    t.data = (0..n_data)
        .map(|_| (arb_domain(rng), rng.uniform(0.0, 1.0)))
        .collect();
    t
}

fn arb_input(rng: &mut SimRng) -> SolverInput {
    let tasks = (0..rng.below(6) as usize)
        .map(|i| arb_task(rng, i))
        .collect();
    let fixed_flows = (0..rng.below(3) as usize)
        .map(|_| FixedFlow {
            target: arb_domain(rng),
            source_socket: if rng.below(2) == 0 {
                Some(SocketId(rng.below(2) as usize))
            } else {
                None
            },
            gbps: rng.uniform(0.0, 20.0),
            weight: rng.uniform(0.1, 2.0),
        })
        .collect();
    SolverInput { tasks, fixed_flows }
}

fn arb_system(rng: &mut SimRng) -> MemSystem {
    let snc = if rng.below(2) == 0 {
        SncMode::Disabled
    } else {
        SncMode::Enabled
    };
    let mut sys = MemSystem::new(MachineSpec::dual_socket(), snc);
    if rng.below(3) == 0 {
        sys.set_adaptive_prefetch(Some(Default::default()));
    }
    sys
}

/// (a) A reused scratch is bit-identical to a fresh solve, with warm starts
/// off, across randomized systems and inputs — including degenerate tasks
/// (zero threads, zero accesses) and out-of-range domains.
#[test]
fn scratch_reuse_matches_fresh_solve_bitwise() {
    for_cases(0x501_7E12, |rng| {
        let mut sys = arb_system(rng);
        sys.set_warm_start(false);
        let mut scratch = SolverScratch::default();
        for _ in 0..4 {
            let input = arb_input(rng);
            let reused = sys.solve_with(&input, &mut scratch);
            let fresh = sys.solve(&input);
            assert_eq!(reused, fresh, "scratch reuse diverged for {input:?}");
        }
    });
}

/// Warm starts change only the starting guess: the warm answer stays within
/// the fixed-point tolerance band of the cold one and still converges.
#[test]
fn warm_start_stays_within_tolerance_of_cold_solve() {
    for_cases(0x501_7E13, |rng| {
        let sys = arb_system(rng);
        let mut scratch = SolverScratch::default();
        let input = arb_input(rng);
        let cold = sys.solve_with(&input, &mut scratch);
        if !cold.converged {
            // A non-converged damped estimate has no tolerance guarantee to
            // hold the warm re-solve to; skip those draws.
            return;
        }
        // Re-solving the same input starts at the previous fixed point.
        let warm = sys.solve_with(&input, &mut scratch);
        assert!(warm.converged);
        assert!(warm.stats.warm_hits == 1 && !input.tasks.is_empty() || input.tasks.is_empty());
        for (a, b) in cold.tasks.iter().zip(&warm.tasks) {
            let rel =
                (a.rate_per_thread - b.rate_per_thread).abs() / a.rate_per_thread.abs().max(1e-9);
            assert!(rel < 1e-2, "warm start moved the answer by {rel}");
        }
    });
}

/// (b) A memoizing host machine replays exactly what a cold machine
/// recomputes, tick for tick, across randomized intensity schedules and
/// actuations that revisit earlier configurations.
#[test]
fn memoized_host_ticks_match_recomputed_ticks() {
    for_cases(0x501_7E14, |rng| {
        let build = || {
            let mut m = HostMachine::new(MachineSpec::dual_socket(), SncMode::Disabled);
            let a = m.add_task(
                TaskSpec::new("ml", Priority::High, ThreadProfile::streaming(2e9), 4),
                vec![CpuAllocation::local(DomainId::new(0, 0), 4)],
            );
            let b = m.add_task(
                TaskSpec::new("cpu", Priority::Low, ThreadProfile::streaming(1e9), 8),
                vec![CpuAllocation::local(DomainId::new(1, 0), 8)],
            );
            (m, a, b)
        };
        let (mut memo, ma, mb) = build();
        // Memoization must be exact regardless of warm starts, but bitwise
        // tick equality against a cold machine requires warm starts off on
        // both sides (warm starts may legitimately shift low-order bits).
        memo.set_solver_tuning(SolverTuning {
            memo: true,
            warm_start: false,
        });
        let (mut cold, ca, cb) = build();
        cold.set_solver_tuning(SolverTuning::baseline());
        assert_eq!((ma, mb), (ca, cb));

        // A small intensity alphabet guarantees revisits (memo hits).
        let levels = [0.25, 0.5, 1.0];
        for _ in 0..12 {
            let ia = levels[rng.below(3) as usize];
            let ib = levels[rng.below(3) as usize];
            memo.set_intensity(ma, ia);
            memo.set_intensity(mb, ib);
            cold.set_intensity(ca, ia);
            cold.set_intensity(cb, ib);
            if rng.below(4) == 0 {
                let setting = PrefetchSetting::fraction(levels[rng.below(3) as usize]);
                memo.set_prefetchers(mb, setting);
                cold.set_prefetchers(cb, setting);
            }
            let rm = memo.solve();
            let rc = cold.solve();
            assert_eq!(rm, rc, "memoized tick diverged from recomputation");
        }
        // An unchanged configuration re-solved immediately is a guaranteed
        // memo hit (well under the cache capacity), and must still replay
        // exactly what the cold machine recomputes.
        let before = memo.solve_stats().memo_hits;
        assert_eq!(memo.solve(), cold.solve());
        assert!(memo.solve_stats().memo_hits > before);
        assert_eq!(cold.solve_stats().memo_hits, 0);
    });
}
