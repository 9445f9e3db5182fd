//! The repository benchmark: the TF/IDF -> K-means workflow as a user
//! runs it, end to end and layer by layer.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mix-discrete --seed 1 --seconds 30 --trace 0
//! ```
//!
//! A closed loop with one client: each run does what
//! `hpa cluster --input DIR` does (load the corpus directory in
//! parallel, run the workflow, write the assignments to a file) on
//! `Exec::pool(nproc)`, one run at a time. Every run is checked bit for
//! bit against a single-thread reference computed in set-up.
//! `METRICS.md` lists the workloads and metrics, and which end-to-end
//! metric each per-layer metric should move.
//!
//! `--trace 0` reports the end-to-end metrics of untraced runs.
//! `--trace 1` also runs the staged traced run (see `staged`) on the pool
//! and on `Exec::sequential()`, and reports the per-layer metrics. The
//! last line of standard output is one JSON object with the metrics of
//! the chosen mode; the lines before it print every metric by name.

mod check;
mod staged;
mod topics;
mod workload;

use check::{Reference, Tally};
use hpa_core::{Strategy, Workflow};
use hpa_exec::{Exec, MachineModel};
use staged::Recorder;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

/// Set-ups per invocation; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed runs a phase makes, however long they take.
const MIN_RUNS: usize = 3;
/// Bytes per megabyte in every `MB` unit.
const MB: f64 = 1e6;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("{flag} is required"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = get("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!(
        "unknown workload '{workload}' (one of {})",
        names.join(", ")
    ))?;
    let number = |flag: &str| -> Result<u64, String> {
        let v = get(flag)?;
        v.parse()
            .map_err(|_| format!("bad value for {flag}: '{v}'"))
    };
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// The directory a run works in; removed, with everything in it, when
/// the benchmark ends, and its parent too once no other run uses it.
struct WorkDir(PathBuf);

impl WorkDir {
    fn corpus(&self) -> PathBuf {
        self.0.join("corpus")
    }
    fn intermediate(&self) -> PathBuf {
        self.0.join("intermediate")
    }
    fn output(&self) -> PathBuf {
        self.0.join("assignments.csv")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// What one run does, and all of what it does: what `hpa cluster
/// --input DIR --out FILE` does after start-up.
fn user_run(
    workflow: &Workflow,
    exec: &Exec,
    dir: &WorkDir,
) -> Result<hpa_core::WorkflowOutcome, String> {
    let corpus = hpa_io::load_corpus_parallel(exec, "input", &dir.corpus())
        .map_err(|e| format!("loading corpus: {e}"))?;
    let outcome = workflow
        .run(&corpus, exec)
        .map_err(|e| format!("workflow failed: {e}"))?;
    std::fs::write(dir.output(), &outcome.output).map_err(|e| format!("writing output: {e}"))?;
    Ok(outcome)
}

/// Set-up: make the corpus from the seed, write it to disk, create the
/// pool and compute the reference.
///
/// The reference runs on one thread, but cut into the pool's chunks:
/// with the default K-means grain there is one chunk per thread, and
/// the partial sums of `nproc` chunks differ from one chunk's in the
/// last bit of the inertia (Mix × 0.1, seed 1, fused: 2.291677748883905e3
/// on the pool, 2.2916777488839048e3 on `Exec::sequential()`). A
/// simulated executor with `nproc` cores runs every task inline on the
/// calling thread with the pool's chunk boundaries.
fn set_up(
    args: &Args,
    workflow: &Workflow,
    dir: &WorkDir,
    nproc: usize,
) -> Result<(Exec, Reference, u64), String> {
    let corpus_dir = dir.corpus();
    let _ = std::fs::remove_dir_all(&corpus_dir);
    let corpus = args.workload.corpus(args.seed);
    hpa_corpus::disk::write_corpus(&corpus, &corpus_dir)
        .map_err(|e| format!("writing corpus: {e}"))?;
    let (docs, bytes) = (corpus.len(), corpus.total_bytes());
    drop(corpus);
    let exec = Exec::pool(nproc);
    let outcome = user_run(
        workflow,
        &Exec::simulated(nproc, MachineModel::default()),
        dir,
    )?;
    let reference = Reference {
        docs,
        k: workflow.kmeans.k,
        assignments: outcome.assignments,
        inertia: outcome.inertia,
        output: outcome.output,
    };
    Ok((exec, reference, bytes))
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of p50/p75/p90/p95/p99 with at least ten samples beyond
/// it (nearest-rank), if the sample count supports any.
fn tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [99, 95, 90, 75, 50].into_iter().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100).max(1);
        (n - rank >= 10).then(|| (p, v[rank - 1]))
    })
}

/// Peak resident memory of this process since the last reset.
fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading peak RSS: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024)
}

/// Reset the peak to the current resident size, so the peak that
/// `peak_rss_bytes` reports afterwards is the next run's alone.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting peak RSS: {e}"))
}

/// Untraced runs on `exec` for `budget`, at least `min_runs`; returns
/// each run's wall time in seconds and peak resident memory in MB.
///
/// The peak is taken per run, so that the metric is a median like
/// `run_s` and one unusual run does not set it.
fn timed_runs(
    workflow: &Workflow,
    exec: &Exec,
    dir: &WorkDir,
    reference: &Reference,
    budget: Duration,
    min_runs: usize,
    tally: &mut Tally,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let start = Instant::now();
    let (mut times, mut peaks) = (Vec::new(), Vec::new());
    while times.len() < min_runs || start.elapsed() < budget {
        reset_peak_rss()?;
        let t0 = Instant::now();
        let result = user_run(workflow, exec, dir);
        times.push(t0.elapsed().as_secs_f64());
        peaks.push(peak_rss_bytes()? as f64 / MB);
        tally.record(result.and_then(|o| reference.check(&o.assignments, o.inertia, &o.output)));
    }
    Ok((times, peaks))
}

/// One metric line of the report and the JSON result.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Staged runs on `exec` for `budget` (at least `min_runs`), each
/// checked against the reference, output bytes included; collects each
/// finished run's counts.
#[allow(clippy::too_many_arguments)]
fn staged_runs(
    rec: &mut Recorder,
    label: &'static str,
    exec: &Exec,
    workflow: &Workflow,
    dir: &WorkDir,
    reference: &Reference,
    budget: Duration,
    min_runs: usize,
    tally: &mut Tally,
    counts: &mut Vec<staged::Counts>,
) {
    let start = Instant::now();
    let mut runs = 0;
    while runs < min_runs || start.elapsed() < budget {
        let run = rec.spans.last().map_or(0, |s| s.run + 1);
        let intermediate = dir.intermediate().join("staged");
        let result = staged::run(
            rec,
            run,
            label,
            exec,
            workflow,
            &dir.corpus(),
            &intermediate,
            &dir.output(),
        );
        tally.record(result.and_then(|s| {
            counts.push(s.counts);
            reference.check(&s.assignments, s.inertia, &s.output)
        }));
        runs += 1;
    }
}

/// Transport probes on `exec` for `budget` (at least `min_runs`), each
/// checked to read `model` back unchanged; collects each file's size.
#[allow(clippy::too_many_arguments)]
fn probe_runs(
    rec: &mut Recorder,
    label: &'static str,
    exec: &Exec,
    workflow: &Workflow,
    model: &hpa_tfidf::TfIdfModel,
    dir: &WorkDir,
    budget: Duration,
    min_runs: usize,
    tally: &mut Tally,
    file_bytes: &mut Vec<u64>,
) {
    let start = Instant::now();
    let mut runs = 0;
    while runs < min_runs || start.elapsed() < budget {
        let run = rec.spans.last().map_or(0, |s| s.run + 1);
        let intermediate = dir.intermediate().join("probe");
        let result = staged::probe_transport(rec, run, label, exec, workflow, model, &intermediate);
        tally.record(result.map(|b| file_bytes.push(b)));
        runs += 1;
    }
}

/// Median over the `exec` runs that record any of the spans called
/// `names` of the summed duration of those spans.
fn span_median(rec: &Recorder, exec: &str, names: &[&str]) -> f64 {
    let runs: std::collections::BTreeSet<u32> = rec
        .spans
        .iter()
        .filter(|s| s.exec == exec)
        .map(|s| s.run)
        .collect();
    let per_run: Vec<f64> = runs
        .iter()
        .filter_map(|&r| {
            let mut spans = rec
                .spans
                .iter()
                .filter(|s| s.run == r && names.contains(&s.name))
                .peekable();
            spans.peek()?;
            Some(spans.map(staged::Span::secs).sum())
        })
        .collect();
    median(&per_run)
}

/// Median over the staged pool runs of the share of the run span no
/// child span covers.
fn unattributed_frac(rec: &Recorder) -> f64 {
    let fracs: Vec<f64> = rec
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.exec == "pool" && s.name == staged::RUN)
        .map(|(i, root)| {
            let covered: f64 = rec
                .spans
                .iter()
                .filter(|s| s.parent == Some(i))
                .map(staged::Span::secs)
                .sum();
            (root.secs() - covered) / root.secs()
        })
        .collect();
    median(&fracs)
}

/// The per-layer metrics of the staged runs and transport probes;
/// `file_bytes` holds the intermediate file's size per pool run or probe.
fn per_layer_metrics(
    rec: &Recorder,
    counts: &[staged::Counts],
    file_bytes: &[f64],
    run_s: f64,
) -> Vec<Metric> {
    use staged::*;
    let pool = |names: &[&str]| span_median(rec, "pool", names);
    let speedup = |names: &[&str]| span_median(rec, "sequential", names) / pool(names);
    let count = |f: &dyn Fn(&Counts) -> f64| median(&counts.iter().map(f).collect::<Vec<_>>());
    let load_s = pool(&[IO_LOAD]);
    let fit_s = pool(&[KMEANS_FIT]);
    let iterations = count(&|c| c.iterations as f64);
    vec![
        metric("io.load_s", load_s, "s"),
        metric(
            "io.read_mb_per_s",
            count(&|c| c.corpus_bytes as f64) / MB / load_s,
            "MB/s",
        ),
        metric("tfidf.count_words_s", pool(&[COUNT_WORDS]), "s"),
        metric("tfidf.build_vocab_s", pool(&[BUILD_VOCAB]), "s"),
        metric("tfidf.transform_s", pool(&[TRANSFORM]), "s"),
        metric("tfidf.free_s", pool(&[FREE]), "s"),
        metric("tfidf.tokens", count(&|c| c.tokens as f64), "count"),
        metric(
            "tfidf.vocab_terms",
            count(&|c| c.vocab_terms as f64),
            "count",
        ),
        metric("tfidf.nnz", count(&|c| c.nnz as f64), "count"),
        metric(
            "dict.heap_mb",
            count(&|c| c.dict_heap_bytes as f64) / MB,
            "MB",
        ),
        metric("kmeans.fit_s", fit_s, "s"),
        metric("kmeans.iterations", iterations, "count"),
        metric("kmeans.iter_s", fit_s / iterations, "s"),
        metric(
            "kmeans.distances_computed",
            count(&|c| c.assign.distances_computed as f64),
            "count",
        ),
        metric(
            "kmeans.prune_rate",
            count(&|c| {
                let attempted = c.assign.distances_computed + c.assign.distances_pruned;
                c.assign.distances_pruned as f64 / attempted.max(1) as f64
            }),
            "frac",
        ),
        metric("exec.speedup.count_words", speedup(&[COUNT_WORDS]), "x"),
        metric("exec.speedup.transform", speedup(&[TRANSFORM]), "x"),
        metric("exec.speedup.kmeans", speedup(&[KMEANS_FIT]), "x"),
        metric("core.output_s", pool(&[OUTPUT]), "s"),
        metric("core.unattributed_frac", unattributed_frac(rec), "frac"),
        metric("trace.overhead_frac", pool(&[RUN]) / run_s - 1.0, "frac"),
        metric("transport.write_s", pool(&[TRANSPORT_WRITE]), "s"),
        metric("transport.read_s", pool(&[TRANSPORT_READ]), "s"),
        metric("transport.file_mb", median(file_bytes) / MB, "MB"),
        metric(
            "exec.speedup.transport",
            speedup(&[TRANSPORT_WRITE, TRANSPORT_READ]),
            "x",
        ),
    ]
}

fn bench(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = WorkDir(root.join("work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(dir.intermediate())
        .map_err(|e| format!("creating {}: {e}", dir.0.display()))?;
    let workflow = args.workload.workflow(&dir.intermediate());

    let mut setup_times = Vec::new();
    let mut set: Option<(Exec, Reference, u64)> = None;
    for _ in 0..SETUPS {
        // The previous pool shuts down outside the timing.
        let previous = set.take().map(|(_, reference, _)| reference);
        let t0 = Instant::now();
        let (exec, reference, bytes) = set_up(args, &workflow, &dir, nproc)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        if previous.is_some_and(|p| p != reference) {
            return Err("two set-ups of one seed disagree on the reference".to_string());
        }
        set = Some((exec, reference, bytes));
    }
    let (exec, reference, corpus_bytes) = set.expect("at least one set-up");
    reference.self_test()?;
    let corpus_mb = corpus_bytes as f64 / MB;

    let mut tally = Tally::default();
    // Warm-up: checked and counted, not timed.
    timed_runs(
        &workflow,
        &exec,
        &dir,
        &reference,
        Duration::ZERO,
        1,
        &mut tally,
    )?;
    let budget = Duration::from_secs(args.seconds);
    let untraced = if args.trace { budget / 3 } else { budget };
    let (times, peaks) = timed_runs(
        &workflow, &exec, &dir, &reference, untraced, MIN_RUNS, &mut tally,
    )?;
    let run_s = median(&times);

    let mut report = String::new();
    let _ = writeln!(
        report,
        "workload {}  seed {}  nproc {nproc}  pool {}  corpus {corpus_mb:.2} MB  samples {}",
        args.workload.name(),
        args.seed,
        exec.threads(),
        times.len()
    );
    let (min, max) = times.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &t| {
        (lo.min(t), hi.max(t))
    });
    let peak_max = peaks.iter().fold(0.0f64, |a, &b| a.max(b));
    let _ = writeln!(report, "peak_rss_mb of the highest run {peak_max} MB");
    let _ = write!(report, "run_s median {run_s} s  min {min} s  max {max} s  ");
    let _ = match tail_percentile(&times) {
        Some((p, v)) => writeln!(report, "p{p} {v} s (n = {})", times.len()),
        None => writeln!(
            report,
            "no tail percentile has ten samples beyond it (n = {})",
            times.len()
        ),
    };
    let end_to_end = vec![
        metric("run_s", run_s, "s"),
        metric("mb_per_s", corpus_mb / run_s, "MB/s"),
        metric("setup_s", median(&setup_times), "s"),
        metric("peak_rss_mb", median(&peaks), "MB"),
        metric("ok_frac", tally.ok_frac(), "frac"),
    ];
    if !args.trace {
        print!("{report}");
        return Ok((tally, end_to_end));
    }

    let mut rec = Recorder::new();
    let mut counts = Vec::new();
    // A fused workflow never calls the transport; a quarter of each
    // executor's share goes to probing it (see `probe_runs`).
    let discrete = matches!(workflow.strategy, Strategy::Discrete { .. });
    let (part, probe, model) = if discrete {
        (budget / 3, Duration::ZERO, None)
    } else {
        let model = staged::tfidf_model(&exec, &workflow, &dir.corpus())?;
        (budget / 4, budget / 12, Some(model))
    };
    let mut probe_bytes = Vec::new();
    staged_runs(
        &mut rec,
        "pool",
        &exec,
        &workflow,
        &dir,
        &reference,
        part,
        MIN_RUNS,
        &mut tally,
        &mut counts,
    );
    if let Some(model) = &model {
        probe_runs(
            &mut rec,
            "pool",
            &exec,
            &workflow,
            model,
            &dir,
            probe,
            MIN_RUNS,
            &mut tally,
            &mut probe_bytes,
        );
    }
    // Exec::sequential() cuts K-means into one chunk, so its answer can
    // differ from the pool's in the last bit (see `set_up`). Its own
    // untimed warm-up run is the reference its staged runs must match.
    let sequential = Exec::sequential();
    let warm_up = user_run(&workflow, &sequential, &dir)?;
    let seq_reference = Reference {
        assignments: warm_up.assignments,
        inertia: warm_up.inertia,
        output: warm_up.output,
        ..reference.clone()
    };
    tally.record(seq_reference.structure_check());
    staged_runs(
        &mut rec,
        "sequential",
        &sequential,
        &workflow,
        &dir,
        &seq_reference,
        part,
        1,
        &mut tally,
        &mut Vec::new(),
    );
    if let Some(model) = &model {
        probe_runs(
            &mut rec,
            "sequential",
            &sequential,
            &workflow,
            model,
            &dir,
            probe,
            1,
            &mut tally,
            &mut Vec::new(),
        );
    }
    drop(model);
    let file_bytes: Vec<f64> = if discrete {
        counts.iter().map(|c| c.file_bytes as f64).collect()
    } else {
        probe_bytes.iter().map(|&b| b as f64).collect()
    };
    let per_layer = per_layer_metrics(&rec, &counts, &file_bytes, run_s);

    let out = root.join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let spans_path = out.join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
    std::fs::write(&spans_path, rec.to_json())
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    let _ = writeln!(
        report,
        "spans: {} ({} spans)",
        spans_path.display(),
        rec.spans.len()
    );
    let _ = writeln!(report, "end-to-end (untraced):");
    for m in &end_to_end {
        let _ = writeln!(report, "  {} {} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(report, "per-layer (traced, {} pool runs):", counts.len());
    print!("{report}");
    Ok((tally, per_layer))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let (tally, metrics) = match bench(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("error: metric {} is not finite ({})", m.name, m.value);
        return ExitCode::FAILURE;
    }
    if let Some(e) = &tally.first_error {
        eprintln!("failed run: {e}");
    }
    let mut json = String::new();
    for (i, m) in metrics.iter().enumerate() {
        println!("  {} {} {}", m.name, m.value, m.unit);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            r#"{sep}"{}": {{"value": {}, "unit": "{}"}}"#,
            m.name, m.value, m.unit
        );
    }
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{json}}}}}"#,
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    ExitCode::SUCCESS
}
