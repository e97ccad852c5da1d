//! Batch decisions run depth-first.
//!
//! `ra_search` decides finished histories with the memoized depth-first
//! engine. The monitor's level-ordered closure (`try_search_batch`)
//! materializes whole levels of configurations: on a split brain it
//! overruns its 2^16 cap after seconds of work and hundreds of MiB, while
//! the depth-first walk decides the same history in under a thousand
//! nodes. These tests pin both halves: the depth-first engine decides the
//! split-brain histories well inside the closure's cap, and wherever a
//! capped closure decides a corpus history, both engines return the same
//! witness.

use ral_core::history::{rewrite_history, History};
use ral_core::label::Identity;
use ral_core::ralin::{ra_search, ra_search_with_stats, try_search_batch, SearchOutcome};
use ral_core::rng::Rng;
use ral_crdts::op::counter::OpCounter;
use ral_sim::driver::{Driver, OpDriver};
use ral_sim::scenario::{self, Scenario};
use ral_sim::sim;
use ral_spec::counter::{CounterOp, CounterSpec};
use ral_verify::workloads;

/// The batch closure's cap in the crosscheck arm: 2^16 expansions and
/// live configurations. The depth-first search decides well inside it.
const CLOSURE_CAP: u64 = 1 << 16;

/// The closure cap of the corpus witness check. An overrun costs work in
/// proportion to the cap, so the check uses a smaller one; it still
/// decides the narrow-window scenarios.
const CORPUS_CLOSURE_CAP: u64 = 1 << 12;

fn counter_history(sc: &Scenario, seed: u64) -> History<CounterOp> {
    let mut driver = OpDriver::new(OpCounter, sc.cfg.n_replicas, |rng: &mut Rng, _, _| {
        Some(workloads::counter(rng))
    });
    sim::run(&mut driver, &sc.cfg, seed);
    assert!(driver.converged(), "{} seed {seed} diverged", sc.name);
    driver.into_cluster().into_history()
}

#[test]
fn split_brain_counter_histories_decide_depth_first() {
    let sc = scenario::split_brain_heal();
    for seed in 0..4 {
        let h = counter_history(&sc, seed);
        let (out, stats) = ra_search_with_stats(&h, &Identity, &CounterSpec);
        assert!(
            out.is_linearizable(),
            "seed {seed}: {}-op history not decided linearizable: {out:?}",
            h.len()
        );
        assert!(
            stats.nodes_expanded < CLOSURE_CAP,
            "seed {seed}: {} nodes expanded",
            stats.nodes_expanded
        );
    }
}

#[test]
fn ra_search_witness_matches_the_capped_closure_on_the_corpus() {
    let mut decided = 0;
    for sc in scenario::all() {
        let h = counter_history(&sc, 0);
        let rewritten = rewrite_history(&h, &Identity).history;
        let Some((closure, _)) = try_search_batch(
            &rewritten,
            &CounterSpec,
            CORPUS_CLOSURE_CAP,
            CORPUS_CLOSURE_CAP as usize,
        ) else {
            continue;
        };
        decided += 1;
        let searched = ra_search(&h, &Identity, &CounterSpec);
        assert!(
            matches!(searched, SearchOutcome::Linearizable(_)),
            "{}: {searched:?}",
            sc.name
        );
        assert_eq!(searched, closure, "{}: witnesses differ", sc.name);
    }
    assert!(decided > 0, "the capped closure decided no corpus history");
}
