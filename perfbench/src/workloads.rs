//! The four workloads, each runnable untraced (production drivers and
//! entry points only) or traced (the same calls through the bench-side
//! wrappers of [`crate::trace`]).

use crate::probe::Probe;
use crate::trace::{now_ns, secs_since, Layer, Traced, TracedMonitored, Tracer};
use ral_core::compose::{MultiObjRewrite, MultiObjSpec};
use ral_core::history::{rewrite_history, History};
use ral_core::ids::{ObjId, ReplicaId};
use ral_core::label::{Identity, Rewrite};
use ral_core::ralin::{
    memo, ra_search, ra_search_sharded, sharded, try_search_batch, SearchOutcome, Verdict,
};
use ral_core::rng::Rng;
use ral_core::spec::Spec;
use ral_crdts::op::counter::OpCounter;
use ral_crdts::op::or_set::{OrSet, OrSetRewrite};
use ral_crdts::state::lww_element_set::{LwwElementSet, LwwSetState};
use ral_runtime::delta::{DeltaConfig, DeltaCrdt};
use ral_runtime::multi::{MultiCluster, TsMode};
use ral_runtime::op_based::OpBased;
use ral_sim::driver::{DeltaDriver, Driver, MultiDriver, OpDriver, StateDriver};
use ral_sim::sim::{SimConfig, SimRun};
use ral_sim::time::SimTime;
use ral_sim::{scenario, sim, MonitoredDriver};
use ral_spec::counter::CounterSpec;
use ral_spec::set::OrSetSpec;
use ral_verify::workloads as calls;

/// Worker threads of the batch checker's pool. One: on this workload mix
/// the single-threaded memo search is the faster one, and its node counts
/// repeat exactly.
pub const CHECK_THREADS: usize = 1;

/// The expansion and configuration caps `ra_search` gives its batch
/// closure before falling back to the memoized search.
const CLOSURE_CAP: u64 = 1 << 16;

/// Virtual duration that stretches `lan_tight` to ~100k client ops.
const LAN_DURATION: u64 = 1_000_000;

/// Scenario seeds 0..n of the `split_heal_counter` and
/// `multi_mix_composed` panels (see `Workload`).
const SPLIT_PANEL: u64 = 4;
const MULTI_PANEL: u64 = 8;

/// Scenario seeds per pass of `gossip50_lww`: several streams per pass
/// even out the cost differences between scenario seeds.
const GOSSIP_STREAMS: u64 = 3;

/// Objects of the composed `multi_mix` cluster.
const MULTI_OBJECTS: usize = 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Monitored op-based OR-set on `lan_tight`, stretched to ~100k ops.
    LanOrset,
    /// Monitored op-based counter on `split_brain_heal`; the monitor
    /// exhausts and `ra_search` decides offline. A pass is a fixed panel
    /// of scenario seeds, run in an order the seed rotates: the cost of
    /// one stream varies about 13x between scenario seeds (0.2-3.3 s), so
    /// a seed-drawn sample that fits in one run cannot be steady.
    SplitHealCounter,
    /// LWW element set on `gossip_50`, full-state then delta transport.
    Gossip50Lww,
    /// `MultiDriver`, 50 replicas x 32 counters (shared timestamps) on
    /// `multi_mix`, then the sharded search. A fixed panel like
    /// `SplitHealCounter`: some scenario seeds cost 2x the time and 2.5x
    /// the memory of the others in the sharded search.
    MultiMixComposed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LanOrset,
        Workload::SplitHealCounter,
        Workload::Gossip50Lww,
        Workload::MultiMixComposed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LanOrset => "lan_orset",
            Workload::SplitHealCounter => "split_heal_counter",
            Workload::Gossip50Lww => "gossip50_lww",
            Workload::MultiMixComposed => "multi_mix_composed",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one pass: the workload's unit of input, one stream at a time.
    /// A warm-up pass of the panel workload runs its first stream only.
    pub fn pass(self, seed: u64, warm_up: bool, mut mode: Mode) -> Vec<Stream> {
        match self {
            Workload::LanOrset => {
                let mut sc = scenario::lan_tight();
                sc.cfg.duration = SimTime(LAN_DURATION);
                vec![monitored(
                    OrSet::<u8>::new(),
                    &sc.cfg,
                    seed,
                    |rng: &mut Rng, _, _| Some(calls::or_set(rng)),
                    &OrSetRewrite::new(),
                    &OrSetSpec::new(),
                    mode,
                )]
            }
            Workload::SplitHealCounter => {
                let sc = scenario::split_brain_heal();
                let take = if warm_up { 1 } else { SPLIT_PANEL as usize };
                rotated(seed, SPLIT_PANEL)
                    .take(take)
                    .map(|stream_seed| {
                        monitored(
                            OpCounter,
                            &sc.cfg,
                            stream_seed,
                            |rng: &mut Rng, _, _| Some(calls::counter(rng)),
                            &Identity,
                            &CounterSpec,
                            mode.reborrow(),
                        )
                    })
                    .collect()
            }
            Workload::Gossip50Lww => {
                let sc = scenario::gossip_50();
                let gen = |rng: &mut Rng, _: ReplicaId, _: &LwwSetState<u8>| {
                    Some(calls::lww_element_set(rng))
                };
                let mut streams = Vec::new();
                for stream_seed in seed * GOSSIP_STREAMS..(seed + 1) * GOSSIP_STREAMS {
                    streams.push(gossip(
                        "state",
                        &sc.cfg,
                        stream_seed,
                        || {
                            StateDriver::new(LwwElementSet::<u8>::new(), sc.cfg.n_replicas, gen)
                                .with_sizer(|s: &LwwSetState<u8>| {
                                    LwwElementSet::<u8>::new().state_bytes(s)
                                })
                        },
                        |d| d.cluster().check_lattice_laws(),
                        mode.reborrow(),
                    ));
                    streams.push(gossip(
                        "delta",
                        &sc.cfg,
                        stream_seed,
                        || {
                            DeltaDriver::new(
                                LwwElementSet::<u8>::new(),
                                DeltaConfig::default(),
                                sc.cfg.n_replicas,
                                gen,
                            )
                        },
                        |d| d.cluster().check_lattice_laws(),
                        mode.reborrow(),
                    ));
                }
                streams
            }
            Workload::MultiMixComposed => {
                let sc = scenario::multi_mix();
                rotated(seed, MULTI_PANEL)
                    .map(|stream_seed| composed(&sc.cfg, stream_seed, mode.reborrow()))
                    .collect()
            }
        }
    }
}

/// The panel of scenario seeds `0..n`, starting at the one `seed` picks.
fn rotated(seed: u64, n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| (seed % n + i) % n)
}

/// How a pass runs its streams.
pub enum Mode<'p> {
    /// Build every stream's cluster, drivers and monitor, then stop.
    Setup,
    /// Production drivers and entry points only.
    Plain,
    /// The bench-side wrappers, recording into the probe.
    Traced(&'p mut Probe),
}

impl Mode<'_> {
    fn reborrow(&mut self) -> Mode<'_> {
        match self {
            Mode::Setup => Mode::Setup,
            Mode::Plain => Mode::Plain,
            Mode::Traced(probe) => Mode::Traced(probe),
        }
    }
}

/// One stream: client ops from the first invoke to the final verdict.
pub struct Stream {
    pub ops: u64,
    /// Wall seconds from the first invoke to the final verdict.
    pub wall_s: f64,
    /// Wall seconds spent building the stream's cluster, drivers and
    /// monitor before the first invoke.
    pub setup_s: f64,
    /// Decided, and decided as expected (linearizable, converged).
    pub ok: bool,
    /// Client ops whose verdict the streaming monitor gave live.
    pub live_ops: u64,
    /// Wire payload bytes (`SimStats::payload_bytes`).
    pub payload_bytes: u64,
    /// Everything deterministic about the stream's outcome: verdict,
    /// monitor and engine counters, history length, batch outcome. Equal
    /// fingerprints for equal inputs are checked across passes and
    /// between the traced and untraced runs.
    pub fingerprint: String,
}

impl Stream {
    /// A stream built and dropped before its first invoke.
    fn setup_only(setup_s: f64) -> Stream {
        Stream {
            ops: 0,
            wall_s: 0.0,
            setup_s,
            ok: true,
            live_ops: 0,
            payload_bytes: 0,
            fingerprint: String::new(),
        }
    }
}

/// A monitored op-based stream, decided live by the monitor or, when it
/// exhausts, offline by the batch search.
fn monitored<C, F, R, S>(
    crdt: C,
    cfg: &SimConfig,
    seed: u64,
    gen: F,
    rw: &R,
    spec: &S,
    mode: Mode,
) -> Stream
where
    C: OpBased,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
    R: Rewrite<C::Label, Out = S::Label>,
    S: Spec + Sync,
    S::Label: Sync,
{
    let probe = match mode {
        Mode::Traced(probe) => probe,
        Mode::Setup | Mode::Plain => {
            let t = now_ns();
            let mut d = MonitoredDriver::new(OpDriver::new(crdt, cfg.n_replicas, gen), rw, spec);
            let setup_s = secs_since(t);
            if matches!(mode, Mode::Setup) {
                return Stream::setup_only(setup_s);
            }
            let t = now_ns();
            let run = sim::run(&mut d, cfg, seed);
            let verdict = d.verdict();
            let batch =
                (verdict == Verdict::Exhausted).then(|| ra_search(d.cluster().history(), rw, spec));
            let wall_s = secs_since(t);
            let stats = d.stats().clone();
            return monitored_stream(
                &run,
                d.cluster().history(),
                d.converged(),
                verdict,
                &stats,
                batch,
                wall_s,
                setup_s,
            );
        }
    };
    let tracer = Tracer::new();
    let t = now_ns();
    let mut d = TracedMonitored::new(OpDriver::new(crdt, cfg.n_replicas, gen), rw, spec, &tracer);
    let setup_s = secs_since(t);
    let t = now_ns();
    let run = tracer.span(Layer::Sim, || sim::run(&mut d, cfg, seed));
    let verdict = d.verdict();
    let batch = (verdict == Verdict::Exhausted).then(|| {
        // `ra_search` step by step: closure at its caps, memo on overrun.
        let (h, closure) = tracer.span(Layer::Closure, || {
            let h = rewrite_history(d.cluster().history(), rw).history;
            let closure = try_search_batch(&h, spec, CLOSURE_CAP, CLOSURE_CAP as usize);
            (h, closure)
        });
        match closure {
            Some((out, _)) => out,
            None => {
                let (out, st) = tracer.span(Layer::Memo, || {
                    memo::search_with_threads_stats(&h, spec, u64::MAX, CHECK_THREADS)
                });
                probe.add("check.fallbacks", 1);
                probe.add("check.nodes_expanded", st.nodes_expanded);
                probe.add("check.memo_hits", st.memo_hits);
                out
            }
        }
    });
    let wall_s = secs_since(t);
    let stats = d.stats().clone();
    let stream = monitored_stream(
        &run,
        d.cluster().history(),
        d.converged(),
        verdict,
        &stats,
        batch,
        wall_s,
        setup_s,
    );
    let lags = d.into_lags();
    probe.absorb(tracer, "runtime", wall_s);
    probe.engine(&run, "runtime");
    probe.monitor(&stats, &lags);
    stream
}

#[allow(clippy::too_many_arguments)]
fn monitored_stream<L>(
    run: &SimRun,
    h: &History<L>,
    converged: bool,
    verdict: Verdict,
    stats: &ral_core::ralin::MonitorStats,
    batch: Option<SearchOutcome>,
    wall_s: f64,
    setup_s: f64,
) -> Stream {
    let settled = stats.settled == stats.ops && stats.live_window == 0;
    let ok = converged
        && match (&verdict, &batch) {
            (Verdict::Ok, None) => settled,
            (Verdict::Exhausted, Some(out)) => out.is_linearizable(),
            _ => false,
        };
    Stream {
        ops: h.len() as u64,
        wall_s,
        setup_s,
        ok,
        live_ops: if verdict == Verdict::Ok {
            h.len() as u64
        } else {
            0
        },
        payload_bytes: run.stats.payload_bytes,
        fingerprint: format!(
            "{verdict:?} {stats:?} ops={} {:?} converged={converged} batch={batch:?}",
            h.len(),
            run.stats
        ),
    }
}

/// An unmonitored gossip stream; its final verdict is convergence after
/// the final sync (plus the lattice laws, checked outside the timing).
fn gossip<D: Driver>(
    transport: &'static str,
    cfg: &SimConfig,
    seed: u64,
    build: impl FnOnce() -> D,
    laws: impl FnOnce(&D) -> bool,
    mode: Mode,
) -> Stream {
    let t = now_ns();
    let mut d = build();
    let setup_s = secs_since(t);
    if matches!(mode, Mode::Setup) {
        return Stream::setup_only(setup_s);
    }
    let tracer = Tracer::new();
    let t = now_ns();
    let (run, converged) = if matches!(mode, Mode::Traced(_)) {
        let mut traced = Traced::new(d, &tracer);
        let run = tracer.span(Layer::Sim, || sim::run(&mut traced, cfg, seed));
        let converged = traced.converged();
        d = traced.inner;
        (run, converged)
    } else {
        let run = sim::run(&mut d, cfg, seed);
        (run, d.converged())
    };
    let wall_s = secs_since(t);
    let ok = converged && laws(&d);
    if let Mode::Traced(probe) = mode {
        probe.absorb(tracer, transport, wall_s);
        probe.engine(&run, transport);
    }
    Stream {
        ops: run.stats.invokes as u64,
        wall_s,
        setup_s,
        ok,
        live_ops: 0,
        payload_bytes: run.stats.payload_bytes,
        fingerprint: format!(
            "{transport} {:?} converged={converged} laws={ok}",
            run.stats
        ),
    }
}

/// A composed stream: `MultiDriver` through the scenario, then the sharded
/// search on the recorded history.
fn composed(cfg: &SimConfig, seed: u64, mode: Mode) -> Stream {
    let rw = MultiObjRewrite::new(Identity);
    let spec = MultiObjSpec::new(CounterSpec, MULTI_OBJECTS);
    let gen = |rng: &mut Rng, _: ReplicaId, _: ObjId, _: &_| Some(calls::counter(rng));
    let t = now_ns();
    let cluster = MultiCluster::new(OpCounter, MULTI_OBJECTS, cfg.n_replicas, TsMode::Shared);
    let mut d = MultiDriver::new(cluster, gen);
    let setup_s = secs_since(t);
    if matches!(mode, Mode::Setup) {
        return Stream::setup_only(setup_s);
    }
    let tracer = Tracer::new();
    let t = now_ns();
    let (run, out, search) = if matches!(mode, Mode::Traced(_)) {
        let mut traced = Traced::new(d, &tracer);
        let run = tracer.span(Layer::Sim, || sim::run(&mut traced, cfg, seed));
        d = traced.inner;
        let (out, st) = tracer.span(Layer::Sharded, || {
            let h = rewrite_history(d.cluster().history(), &rw).history;
            sharded::search_sharded_with_threads_stats(&h, &spec, u64::MAX, CHECK_THREADS)
        });
        (run, out, Some(st))
    } else {
        let run = sim::run(&mut d, cfg, seed);
        let out = ra_search_sharded(d.cluster().history(), &rw, &spec);
        (run, out, None)
    };
    let wall_s = secs_since(t);
    let converged = d.converged();
    let ops = d.cluster().history().len() as u64;
    if let (Mode::Traced(probe), Some(st)) = (mode, search) {
        probe.absorb(tracer, "runtime", wall_s);
        probe.engine(&run, "runtime");
        probe.add("check.nodes_expanded", st.nodes_expanded);
        probe.add("check.memo_hits", st.memo_hits);
        probe.add("check.shards", st.shards);
    }
    Stream {
        ops,
        wall_s,
        setup_s,
        ok: converged && out.is_linearizable(),
        live_ops: 0,
        payload_bytes: run.stats.payload_bytes,
        fingerprint: format!(
            "ops={ops} {:?} converged={converged} outcome={out:?}",
            run.stats
        ),
    }
}
