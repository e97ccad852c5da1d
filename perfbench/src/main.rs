//! `perfbench`: the end-to-end benchmark of the verify-while-replicating
//! pipeline (simulated network, replication runtime, streaming monitor,
//! batch checker), with per-layer attribution from a separate traced run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, measured through the production drivers and entry
//! points; `--trace 1` reports the per-layer metrics. See `README.md`
//! beside this crate for the metric and workload map.

mod probe;
mod trace;
mod workloads;

use probe::{is_exact, Probe, PER_LAYER};
use ral_runtime::exec::{self, ExecConfig};
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;
use workloads::{Mode, Stream, Workload, CHECK_THREADS};

/// Worker threads of the runtime's delivery drains: one, the runtime's
/// own default (sequential drains on the calling thread).
const RUNTIME_THREADS: usize = 1;

/// Set-ups timed per batch. A run times one batch before the warm-up,
/// one after it and one after every measured pass, so that `setup_s`,
/// their median, samples the machine across the whole run.
const SETUP_BATCH: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Pin both pools before anything reads them: the checker reads its
    // count from the environment on every search, the runtime from the
    // override when a cluster is built.
    std::env::set_var("RAL_CHECK_THREADS", CHECK_THREADS.to_string());
    exec::override_threads(Some(RUNTIME_THREADS));
    let runtime_threads = ExecConfig::from_env().threads;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload={} seed={} seconds={} trace={} runtime_threads={runtime_threads} \
         check_threads={CHECK_THREADS} nproc={nproc}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    for problem in &report.problems {
        println!("# problem: {problem}");
    }
    for (name, (value, unit)) in &report.metrics {
        println!("# {name} = {value} {unit}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

struct Report {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Report {
    fn new(streams: &[&[Stream]]) -> Self {
        let all = streams.iter().flat_map(|p| p.iter());
        let (attempted, failed) = all.fold((0, 0), |(a, f), s| (a + 1, f + usize::from(!s.ok)));
        Report {
            attempted,
            failed,
            problems: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn ops_per_s(pass: &[Stream]) -> f64 {
    let ops: u64 = pass.iter().map(|s| s.ops).sum();
    ops as f64 / pass.iter().map(|s| s.wall_s).sum::<f64>()
}

/// Sums, over the stream slots of a pass, the median of `f` across passes.
/// Every pass runs the same streams, so this is one pass's figure with
/// each stream's noise damped by the median.
fn sum_of_medians(passes: &[Vec<Stream>], f: impl Fn(&Stream) -> f64) -> f64 {
    (0..passes[0].len())
        .map(|j| median(passes.iter().map(|p| f(&p[j])).collect()))
        .sum()
}

/// Client ops per second of a pass, each stream's wall time taken as its
/// median over the passes.
fn median_ops_per_s(passes: &[Vec<Stream>]) -> f64 {
    let ops: u64 = passes[0].iter().map(|s| s.ops).sum();
    ops as f64 / sum_of_medians(passes, |s| s.wall_s)
}

fn fingerprints(pass: &[Stream]) -> Vec<&str> {
    pass.iter().map(|s| s.fingerprint.as_str()).collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Builds a pass's clusters, drivers and monitors `SETUP_BATCH` times,
/// dropping each before its first invoke.
fn set_up(w: Workload, seed: u64, setups: &mut Vec<Vec<Stream>>) {
    setups.extend((0..SETUP_BATCH).map(|_| w.pass(seed, false, Mode::Setup)));
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Flags every pass whose deterministic outcome differs from the first.
fn check_repeats(passes: &[Vec<Stream>], what: &str, problems: &mut Vec<String>) {
    let first = fingerprints(&passes[0]);
    for (i, p) in passes.iter().enumerate().skip(1) {
        if fingerprints(p) != first {
            problems.push(format!(
                "{what} pass {i} differs from pass 0 on the same seed"
            ));
        }
    }
}

/// The end-to-end run: production drivers and entry points only.
fn untraced(args: &Args) -> Report {
    let w = args.workload;
    let mut setups = Vec::new();
    set_up(w, args.seed, &mut setups);
    let warm = w.pass(args.seed, true, Mode::Plain);
    set_up(w, args.seed, &mut setups);
    let start = trace::now_ns();
    let mut passes = Vec::new();
    while passes.is_empty() || trace::secs_since(start) < args.seconds {
        passes.push(w.pass(args.seed, false, Mode::Plain));
        set_up(w, args.seed, &mut setups);
    }
    // One pass's set-up, each stream's taken as its median.
    let setup_s = sum_of_medians(&setups, |s| s.setup_s);
    let mut all: Vec<&[Stream]> = vec![&warm];
    all.extend(passes.iter().map(Vec::as_slice));
    let mut report = Report::new(&all);
    check_repeats(&passes, "untraced", &mut report.problems);
    let rates: Vec<f64> = passes.iter().map(|p| ops_per_s(p)).collect();
    println!("# ops_per_s by pass: {rates:.0?}");
    report
        .metrics
        .insert("ops_per_s", (median_ops_per_s(&passes), "1/s"));
    report.metrics.insert("setup_s", (setup_s, "s"));
    report
        .metrics
        .insert("peak_rss_mib", (peak_rss_mib(), "MiB"));
    println!(
        "# passes={} streams/pass={} ops/pass={}",
        passes.len(),
        passes[0].len(),
        passes[0].iter().map(|s| s.ops).sum::<u64>()
    );
    report
}

/// The traced run: untraced and traced passes of the same input
/// alternate, so the traced one can be checked against the production
/// path and its overhead measured.
fn traced(args: &Args) -> Report {
    let w = args.workload;
    let warm = w.pass(args.seed, true, Mode::Plain);
    let start = trace::now_ns();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut layers: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut last = Probe::default();
    while plain.is_empty() || trace::secs_since(start) < args.seconds {
        plain.push(w.pass(args.seed, false, Mode::Plain));
        let mut probe = Probe::default();
        let pass = w.pass(args.seed, false, Mode::Traced(&mut probe));
        layers.push(probe.metrics(&pass));
        traced.push(pass);
        last = probe;
    }
    let mut all: Vec<&[Stream]> = vec![&warm];
    all.extend(plain.iter().chain(&traced).map(Vec::as_slice));
    let mut report = Report::new(&all);
    check_repeats(&plain, "untraced", &mut report.problems);
    for (i, (p, t)) in plain.iter().zip(&traced).enumerate() {
        if fingerprints(p) != fingerprints(t) {
            eprintln!(
                "untraced: {:?}\ntraced:   {:?}",
                fingerprints(p),
                fingerprints(t)
            );
            report.problems.push(format!(
                "traced pass {i} does not reproduce the untraced run"
            ));
        }
    }
    for (name, unit) in PER_LAYER {
        let values: Vec<f64> = layers.iter().map(|m| m[name]).collect();
        let value = if is_exact(name) {
            if values.iter().any(|v| *v != values[0]) {
                report
                    .problems
                    .push(format!("{name} does not repeat exactly: {values:?}"));
            }
            values[0]
        } else {
            median(values)
        };
        report.metrics.insert(name, (value, unit));
    }
    let plain_rate = median_ops_per_s(&plain);
    let traced_rate = median_ops_per_s(&traced);
    report.metrics.insert(
        "trace.overhead_frac",
        (1.0 - traced_rate / plain_rate, "ratio"),
    );
    println!(
        "# passes={} untraced_ops_per_s={plain_rate} traced_ops_per_s={traced_rate}",
        traced.len()
    );
    if let Err(e) = write_spans(w.name(), &last) {
        report.problems.push(format!("writing spans: {e}"));
    }
    report
}

/// Writes the last traced pass's span log to `out/<workload>.spans.tsv`
/// beside this crate.
fn write_spans(workload: &str, probe: &Probe) -> std::io::Result<()> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.spans.tsv"));
    let mut out = BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "# stream\tid\tlayer\tparent\tstart_ns\tend_ns")?;
    for (k, (transport, spans)) in probe.logs.iter().enumerate() {
        trace::write_tsv(&mut out, k, transport, spans)?;
    }
    out.flush()?;
    println!("# spans written to {}", path.display());
    Ok(())
}
