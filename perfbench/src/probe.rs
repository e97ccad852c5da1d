//! Per-layer observations of one traced pass, reduced to named metrics.

use crate::trace::{Layer, Span, Tracer};
use crate::workloads::Stream;
use ral_core::ralin::MonitorStats;
use ral_sim::sim::SimRun;
use std::collections::BTreeMap;

/// Every per-layer metric with its unit, in report order. Layers a
/// workload does not reach report zero.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("sim.events", "count"),
    ("sim.sends", "count"),
    ("sim.retried", "count"),
    ("sim.held", "count"),
    ("sim.self_s", "s"),
    ("sim.events_per_s", "1/s"),
    ("runtime.invoke_s", "s"),
    ("runtime.receive_s", "s"),
    ("runtime.receive_ns_p50", "ns"),
    ("runtime.receive_ns_p99", "ns"),
    ("runtime.final_sync_s", "s"),
    ("runtime.applied", "count"),
    ("state.invoke_s", "s"),
    ("state.gossip_s", "s"),
    ("state.receive_s", "s"),
    ("state.sizing_s", "s"),
    ("state.final_sync_s", "s"),
    ("state.payload_bytes", "bytes"),
    ("delta.invoke_s", "s"),
    ("delta.gossip_s", "s"),
    ("delta.receive_s", "s"),
    ("delta.sizing_s", "s"),
    ("delta.final_sync_s", "s"),
    ("delta.payload_bytes", "bytes"),
    ("monitor.feed_s", "s"),
    ("monitor.observe_s", "s"),
    ("monitor.feed_ns_p50", "ns"),
    ("monitor.feed_ns_p99", "ns"),
    ("monitor.observe_ns_p99", "ns"),
    ("monitor.expansions", "count"),
    ("monitor.dedup_hits", "count"),
    ("monitor.peak_live_configs", "count"),
    ("monitor.peak_live_window", "count"),
    ("monitor.compactions", "count"),
    ("monitor.prune_unsettled", "count"),
    ("monitor.dedup_ratio", "ratio"),
    ("monitor.settle_lag_ops_p99", "ops"),
    ("monitor.live_decided_frac", "ratio"),
    ("check.closure_s", "s"),
    ("check.memo_s", "s"),
    ("check.sharded_s", "s"),
    ("check.fallbacks", "count"),
    ("check.nodes_expanded", "count"),
    ("check.memo_hits", "count"),
    ("check.shards", "count"),
    ("driver.self_s", "s"),
    ("wire.bytes_per_op", "bytes/op"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// Metrics that must repeat exactly for one seed.
pub fn is_exact(name: &str) -> bool {
    !(name.ends_with("_s")
        || name.contains("_ns_")
        || name.ends_with("_per_s")
        || name.starts_with("trace."))
}

/// What one traced pass observed.
#[derive(Default)]
pub struct Probe {
    self_ns: BTreeMap<String, u64>,
    receive_ns: Vec<u64>,
    feed_ns: Vec<u64>,
    observe_ns: Vec<u64>,
    lags: Vec<u64>,
    counts: BTreeMap<&'static str, u64>,
    wall_s: f64,
    /// The span logs of the pass, by transport.
    pub logs: Vec<(&'static str, Vec<Span>)>,
}

impl Probe {
    /// Adds a deterministic count.
    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.counts.entry(name).or_default() += v;
    }

    fn peak(&mut self, name: &'static str, v: u64) {
        let slot = self.counts.entry(name).or_default();
        *slot = (*slot).max(v);
    }

    /// Folds in one traced stream's spans and its wall time.
    pub fn absorb(&mut self, tracer: Tracer, transport: &'static str, wall_s: f64) {
        for (layer, ns) in Layer::ALL.iter().zip(tracer.self_nanos()) {
            *self.self_ns.entry(layer.name(transport)).or_default() += ns;
        }
        if transport == "runtime" {
            self.receive_ns.extend(tracer.durations(Layer::Receive));
        }
        self.feed_ns.extend(tracer.durations(Layer::Feed));
        self.observe_ns.extend(tracer.durations(Layer::Observe));
        self.wall_s += wall_s;
        self.logs.push((transport, tracer.into_spans()));
    }

    /// Folds in the engine's counters of one stream.
    pub fn engine(&mut self, run: &SimRun, transport: &'static str) {
        let st = &run.stats;
        self.add("sim.events", st.events as u64);
        self.add("sim.sends", st.sends as u64);
        self.add("sim.retried", st.retried as u64);
        self.add("sim.held", st.held as u64);
        match transport {
            "runtime" => self.add("runtime.applied", st.applied as u64),
            "state" => self.add("state.payload_bytes", st.payload_bytes),
            "delta" => self.add("delta.payload_bytes", st.payload_bytes),
            _ => unreachable!("unknown transport {transport}"),
        }
    }

    /// Folds in the monitor's counters and settlement lags of one stream.
    pub fn monitor(&mut self, stats: &MonitorStats, lags: &[u64]) {
        self.add("monitor.expansions", stats.expansions);
        self.add("monitor.dedup_hits", stats.dedup_hits);
        self.add("monitor.compactions", stats.compactions);
        self.add("monitor.prune_unsettled", stats.prune_unsettled);
        self.peak("monitor.peak_live_configs", stats.peak_live_configs);
        self.peak("monitor.peak_live_window", stats.peak_live_window);
        self.lags.extend_from_slice(lags);
    }

    /// The pass's per-layer metrics, every name of [`PER_LAYER`] except
    /// `trace.overhead_frac`, which needs the untraced run too.
    pub fn metrics(&mut self, streams: &[Stream]) -> BTreeMap<&'static str, f64> {
        let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
        for (&name, &v) in &self.counts {
            *m.get_mut(name).expect("listed count") = v as f64;
        }
        let mut total_self = 0;
        for (stem, &ns) in &self.self_ns {
            total_self += ns;
            if ns == 0 {
                continue;
            }
            let name = format!("{stem}_s");
            let slot = PER_LAYER
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("unlisted layer {name}"));
            m.insert(slot.0, ns as f64 * 1e-9);
        }
        m.insert("sim.events_per_s", m["sim.events"] / m["sim.self_s"]);
        m.insert(
            "runtime.receive_ns_p50",
            percentile(&mut self.receive_ns, 0.50),
        );
        m.insert(
            "runtime.receive_ns_p99",
            percentile(&mut self.receive_ns, 0.99),
        );
        m.insert("monitor.feed_ns_p50", percentile(&mut self.feed_ns, 0.50));
        m.insert("monitor.feed_ns_p99", percentile(&mut self.feed_ns, 0.99));
        m.insert(
            "monitor.observe_ns_p99",
            percentile(&mut self.observe_ns, 0.99),
        );
        m.insert(
            "monitor.settle_lag_ops_p99",
            percentile(&mut self.lags, 0.99),
        );
        if m["monitor.expansions"] > 0.0 {
            m.insert(
                "monitor.dedup_ratio",
                m["monitor.dedup_hits"] / m["monitor.expansions"],
            );
        }
        let ops: u64 = streams.iter().map(|s| s.ops).sum();
        let live: u64 = streams.iter().map(|s| s.live_ops).sum();
        let bytes: u64 = streams.iter().map(|s| s.payload_bytes).sum();
        m.insert("monitor.live_decided_frac", live as f64 / ops as f64);
        m.insert("wire.bytes_per_op", bytes as f64 / ops as f64);
        m.insert("trace.coverage", total_self as f64 * 1e-9 / self.wall_s);
        let spans: usize = self.logs.iter().map(|(_, s)| s.len()).sum();
        m.insert("trace.spans", spans as f64);
        m
    }
}

/// Nearest-rank percentile; zero for an empty sample.
pub fn percentile(xs: &mut [u64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable();
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1] as f64
}
