//! Spans recorded from outside the layers.
//!
//! The traced run wraps the production drivers in [`Traced`] and
//! [`TracedMonitored`], which time every call they forward into a layer's
//! public functions. Spans are kept in memory (layer, start, end, parent
//! span) and reduced to per-layer self times when the pass ends; a layer's
//! self time is its spans' durations minus the parts their child spans
//! cover. Nothing inside the layers is instrumented.

use ral_core::ids::ReplicaId;
use ral_core::label::Rewrite;
use ral_core::ralin::{MonitorFeed, MonitorStats, Verdict};
use ral_core::rng::Rng;
use ral_core::spec::Spec;
use ral_obs::wallclock;
use ral_runtime::op_based::{Cluster, OpBased};
use ral_sim::driver::{Driver, OpDriver, Received};
use std::cell::{Cell, RefCell};
use std::io::Write;

/// What a span measured. Transport layers take their prefix (`runtime`,
/// `state`, `delta`) from the pass that records them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One `sim::run` call: the engine plus every driver call it makes.
    Sim,
    /// One timed `Driver` method call: glue around the layer calls below.
    Driver,
    /// Client invocation: workload generator plus the CRDT's prepare.
    Invoke,
    /// Delivery of one message (effector, snapshot merge or delta join).
    Receive,
    /// One gossip tick (snapshot or delta batch creation).
    Gossip,
    /// The transport's wire-size model (`Driver::message_bytes`).
    Sizing,
    /// The final heal-and-synchronize drain.
    FinalSync,
    /// `MonitorFeed::feed_op`.
    Feed,
    /// `MonitorFeed::observe_frontier`: settlement and compaction.
    Observe,
    /// Batch closure: rewrite plus `try_search_batch`.
    Closure,
    /// Depth-first memoized search after a closure overrun.
    Memo,
    /// Sharded search of a composed history, rewrite included.
    Sharded,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 12] = [
        Layer::Sim,
        Layer::Driver,
        Layer::Invoke,
        Layer::Receive,
        Layer::Gossip,
        Layer::Sizing,
        Layer::FinalSync,
        Layer::Feed,
        Layer::Observe,
        Layer::Closure,
        Layer::Memo,
        Layer::Sharded,
    ];

    /// The metric stem of this layer under `transport`.
    pub fn name(self, transport: &str) -> String {
        let (module, call) = match self {
            Layer::Sim => ("sim", "self"),
            Layer::Driver => ("driver", "self"),
            Layer::Invoke => (transport, "invoke"),
            Layer::Receive => (transport, "receive"),
            Layer::Gossip => (transport, "gossip"),
            Layer::Sizing => (transport, "sizing"),
            Layer::FinalSync => (transport, "final_sync"),
            Layer::Feed => ("monitor", "feed"),
            Layer::Observe => ("monitor", "observe"),
            Layer::Closure => ("check", "closure"),
            Layer::Memo => ("check", "memo"),
            Layer::Sharded => ("check", "sharded"),
        };
        format!("{module}.{call}")
    }
}

const ROOT: u32 = u32::MAX;

/// Wall-clock nanoseconds. The workspace's determinism lint admits one
/// wall-clock source, `ral_obs::wallclock`, and the benchmark reads that.
pub fn now_ns() -> u64 {
    wallclock::now_nanos()
}

/// Wall seconds since `t0`, a reading of [`now_ns`].
pub fn secs_since(t0: u64) -> f64 {
    (now_ns() - t0) as f64 * 1e-9
}

/// One timed call; times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// An in-memory span log for one stream. Interior mutability lets the
/// `&self` driver methods record spans too.
pub struct Tracer {
    epoch: u64,
    spans: RefCell<Vec<Span>>,
    open: Cell<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: now_ns(),
            spans: RefCell::new(Vec::new()),
            open: Cell::new(ROOT),
        }
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Tracer::exit`].
    pub fn enter(&self, layer: Layer) -> u32 {
        let mut spans = self.spans.borrow_mut();
        let id = u32::try_from(spans.len()).expect("span log overflow");
        let start = now_ns() - self.epoch;
        spans.push(Span {
            layer,
            parent: self.open.get(),
            start,
            end: start,
        });
        self.open.set(id);
        id
    }

    pub fn exit(&self, id: u32) {
        let end = now_ns() - self.epoch;
        let mut spans = self.spans.borrow_mut();
        let span = &mut spans[id as usize];
        span.end = end;
        self.open.set(span.parent);
    }

    /// Times `f` as one span of `layer`.
    pub fn span<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let id = self.enter(layer);
        let out = f();
        self.exit(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }

    /// Self nanoseconds per layer (indexed like [`Layer::ALL`]).
    pub fn self_nanos(&self) -> [u64; Layer::ALL.len()] {
        let spans = self.spans.borrow();
        let mut own: Vec<i64> = spans.iter().map(|s| s.nanos() as i64).collect();
        for s in spans.iter() {
            if s.parent != ROOT {
                own[s.parent as usize] -= s.nanos() as i64;
            }
        }
        let mut out = [0u64; Layer::ALL.len()];
        for (s, own) in spans.iter().zip(own) {
            let slot = Layer::ALL
                .iter()
                .position(|&l| l == s.layer)
                .expect("listed");
            out[slot] += own.max(0) as u64;
        }
        out
    }

    /// Durations of every span of `layer`, in nanoseconds.
    pub fn durations(&self, layer: Layer) -> Vec<u64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::nanos)
            .collect()
    }
}

/// Writes one stream's span log as tab-separated
/// `stream id layer parent start_ns end_ns` lines (parent -1: a root).
pub fn write_tsv(
    out: &mut impl Write,
    stream: usize,
    transport: &str,
    spans: &[Span],
) -> std::io::Result<()> {
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{stream}\t{i}\t{}\t{parent}\t{}\t{}",
            s.layer.name(transport),
            s.start,
            s.end
        )?;
    }
    Ok(())
}

/// Any production driver, with its layer calls timed.
///
/// Accessors the engine calls per event (`n_messages`, `origin`, `is_up`)
/// and the rare fault calls (`crash`, `restart`) are forwarded untimed and
/// so count as engine time.
pub struct Traced<'t, D> {
    pub inner: D,
    tracer: &'t Tracer,
}

impl<'t, D: Driver> Traced<'t, D> {
    pub fn new(inner: D, tracer: &'t Tracer) -> Self {
        Traced { inner, tracer }
    }

    fn call<T>(&mut self, layer: Layer, f: impl FnOnce(&mut D) -> T) -> T {
        let d = self.tracer.enter(Layer::Driver);
        let out = self.tracer.span(layer, || f(&mut self.inner));
        self.tracer.exit(d);
        out
    }
}

impl<D: Driver> Driver for Traced<'_, D> {
    const RELIABLE: bool = D::RELIABLE;
    const GOSSIPS: bool = D::GOSSIPS;

    fn n_replicas(&self) -> usize {
        self.inner.n_replicas()
    }

    fn invoke(&mut self, rng: &mut Rng, r: ReplicaId) -> bool {
        self.call(Layer::Invoke, |d| d.invoke(rng, r))
    }

    fn gossip(&mut self, r: ReplicaId) -> bool {
        self.call(Layer::Gossip, |d| d.gossip(r))
    }

    fn n_messages(&self) -> usize {
        self.inner.n_messages()
    }

    fn origin(&self, m: usize) -> ReplicaId {
        self.inner.origin(m)
    }

    fn receive(&mut self, r: ReplicaId, m: usize) -> Received {
        self.call(Layer::Receive, |d| d.receive(r, m))
    }

    fn message_bytes(&self, m: usize, to: ReplicaId) -> usize {
        // Only gossiping transports carry a size model; the op-based
        // drivers answer zero and are not worth a span per send.
        if !D::GOSSIPS {
            return self.inner.message_bytes(m, to);
        }
        let d = self.tracer.enter(Layer::Driver);
        let bytes = self
            .tracer
            .span(Layer::Sizing, || self.inner.message_bytes(m, to));
        self.tracer.exit(d);
        bytes
    }

    fn is_up(&self, r: ReplicaId) -> bool {
        self.inner.is_up(r)
    }

    fn crash(&mut self, r: ReplicaId) {
        self.inner.crash(r);
    }

    fn restart(&mut self, r: ReplicaId) {
        self.inner.restart(r);
    }

    fn final_sync(&mut self) {
        self.call(Layer::FinalSync, Driver::final_sync);
    }

    fn converged(&self) -> bool {
        self.inner.converged()
    }
}

/// Settlement lag: for each operation (rewritten space), how many further
/// operations were fed before it settled.
#[derive(Default)]
struct SettleLag {
    settled: u64,
    lags: Vec<u64>,
}

impl SettleLag {
    fn observe(&mut self, stats: &MonitorStats) {
        while self.settled < stats.settled {
            self.lags.push(stats.ops - (self.settled + 1));
            self.settled += 1;
        }
    }
}

/// The bench-side mirror of `MonitoredDriver`: the same `OpDriver` and
/// `MonitorFeed` calls in the same order, each one timed.
pub struct TracedMonitored<'t, C, F, R, S>
where
    C: OpBased,
    R: Rewrite<C::Label>,
    S: Spec<Label = R::Out>,
{
    inner: OpDriver<C, F>,
    feed: MonitorFeed<C::Label, R, S>,
    fed: usize,
    tracer: &'t Tracer,
    lag: SettleLag,
}

impl<'t, C, F, R, S> TracedMonitored<'t, C, F, R, S>
where
    C: OpBased,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
    R: Rewrite<C::Label>,
    S: Spec<Label = R::Out>,
{
    pub fn new(inner: OpDriver<C, F>, rw: R, spec: S, tracer: &'t Tracer) -> Self {
        assert!(inner.cluster().history().is_empty());
        let n = inner.cluster().n_replicas();
        TracedMonitored {
            inner,
            feed: MonitorFeed::new(rw, spec, n),
            fed: 0,
            tracer,
            lag: SettleLag::default(),
        }
    }

    pub fn verdict(&self) -> Verdict {
        self.feed.verdict()
    }

    pub fn cluster(&self) -> &Cluster<C> {
        self.inner.cluster()
    }

    pub fn stats(&self) -> &MonitorStats {
        self.feed.stats()
    }

    /// Per-op settlement lags, in settlement order.
    pub fn into_lags(self) -> Vec<u64> {
        self.lag.lags
    }

    fn catch_up(&mut self) {
        let h = self.inner.cluster().history();
        while self.fed < h.len() {
            let i = self.fed;
            self.tracer
                .span(Layer::Feed, || self.feed.feed_op(h.label(i), h.preds(i)));
            self.lag.observe(self.feed.stats());
            self.fed += 1;
            let origin = h.op(i).replica;
            let f = self.inner.cluster().seen_frontier(origin);
            self.tracer
                .span(Layer::Observe, || self.feed.observe_frontier(origin, f));
            self.lag.observe(self.feed.stats());
        }
    }
}

impl<C, F, R, S> Driver for TracedMonitored<'_, C, F, R, S>
where
    C: OpBased,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
    R: Rewrite<C::Label>,
    S: Spec<Label = R::Out>,
{
    const RELIABLE: bool = true;
    const GOSSIPS: bool = false;

    fn n_replicas(&self) -> usize {
        self.inner.n_replicas()
    }

    fn invoke(&mut self, rng: &mut Rng, r: ReplicaId) -> bool {
        let d = self.tracer.enter(Layer::Driver);
        let invoked = self
            .tracer
            .span(Layer::Invoke, || self.inner.invoke(rng, r));
        if invoked {
            self.catch_up();
        }
        self.tracer.exit(d);
        invoked
    }

    fn gossip(&mut self, r: ReplicaId) -> bool {
        self.inner.gossip(r)
    }

    fn n_messages(&self) -> usize {
        self.inner.n_messages()
    }

    fn origin(&self, m: usize) -> ReplicaId {
        self.inner.origin(m)
    }

    fn receive(&mut self, r: ReplicaId, m: usize) -> Received {
        let d = self.tracer.enter(Layer::Driver);
        let received = self
            .tracer
            .span(Layer::Receive, || self.inner.receive(r, m));
        if matches!(received, Received::Applied(_)) {
            let f = self.inner.cluster().seen_frontier(r);
            self.tracer
                .span(Layer::Observe, || self.feed.observe_frontier(r, f));
            self.lag.observe(self.feed.stats());
        }
        self.tracer.exit(d);
        received
    }

    fn is_up(&self, r: ReplicaId) -> bool {
        self.inner.is_up(r)
    }

    fn crash(&mut self, r: ReplicaId) {
        self.inner.crash(r);
    }

    fn restart(&mut self, r: ReplicaId) {
        self.inner.restart(r);
    }

    fn final_sync(&mut self) {
        let d = self.tracer.enter(Layer::Driver);
        let sync = self.tracer.enter(Layer::FinalSync);
        let cluster = self.inner.cluster_mut();
        cluster.restart_all();
        let (feed, tracer, lag) = (&mut self.feed, self.tracer, &mut self.lag);
        cluster.deliver_all_observed(|r, f| {
            tracer.span(Layer::Observe, || feed.observe_frontier(r, f));
            lag.observe(feed.stats());
        });
        self.tracer.exit(sync);
        self.tracer.exit(d);
    }

    fn converged(&self) -> bool {
        self.inner.converged()
    }
}
