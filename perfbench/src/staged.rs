//! The staged traced run: the workflow's stages called one by one
//! through their public functions, in the order `Workflow::run` calls
//! them, with a span around each call into a layer.
//!
//! Spans stay in memory and are written out when the benchmark ends.
//! Per-layer metrics are read off the spans, so a layer's time is the
//! time of the calls into it and nothing else.

use hpa_core::{DiscreteIo, IntermediateFormat, Strategy, Workflow};
use hpa_exec::Exec;
use hpa_kmeans::{AssignStats, KMeans};
use hpa_sparse::SparseVec;
use hpa_tfidf::{TfIdf, TfIdfModel};
use std::fmt::Write as _;
use std::io::{BufReader, BufWriter, Write as _};
use std::path::Path;
use std::time::Instant;

/// Names of the spans a staged run records, one per layer call; the
/// `run` span is their parent. A discrete workflow records the transport
/// spans inside its runs. A fused one hands the matrix over in memory,
/// so its transport spans come from probes (see `probe_transport`),
/// whose root span is `transport.probe`.
pub const RUN: &str = "run";
pub const IO_LOAD: &str = "io.load";
pub const COUNT_WORDS: &str = "tfidf.count_words";
pub const BUILD_VOCAB: &str = "tfidf.build_vocab";
pub const TRANSFORM: &str = "tfidf.transform";
pub const FREE: &str = "tfidf.free";
pub const TRANSPORT_WRITE: &str = "transport.write";
pub const TRANSPORT_READ: &str = "transport.read";
pub const PROBE: &str = "transport.probe";
pub const KMEANS_FIT: &str = "kmeans.fit";
pub const OUTPUT: &str = "core.output";

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Executor the run used: `pool` or `sequential`.
    pub exec: &'static str,
    pub run: u32,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(
        &mut self,
        name: &'static str,
        exec: &'static str,
        run: u32,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            exec,
            run,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                r#"{{"id":{i},"name":"{}","exec":"{}","run":{},"parent":{parent},"start_ns":{},"end_ns":{}}}{sep}"#,
                s.name, s.exec, s.run, s.start_ns, s.end_ns
            );
        }
        out.push_str("]\n");
        out
    }
}

/// Work counts of one staged run, taken where the work happens.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub corpus_bytes: u64,
    pub tokens: u64,
    pub vocab_terms: u64,
    pub nnz: u64,
    pub dict_heap_bytes: u64,
    pub file_bytes: u64,
    pub iterations: u64,
    pub assign: AssignStats,
}

/// A staged run's clustering and the bytes it wrote, for the
/// correctness check.
pub struct Staged {
    pub assignments: Vec<u32>,
    pub inertia: f64,
    pub output: Vec<u8>,
    pub counts: Counts,
}

/// Run the workflow stage by stage on `exec`, recording spans under run
/// id `run`.
#[allow(clippy::too_many_arguments)]
pub fn run(
    rec: &mut Recorder,
    run: u32,
    exec_label: &'static str,
    exec: &Exec,
    workflow: &Workflow,
    corpus_dir: &Path,
    intermediate: &Path,
    output: &Path,
) -> Result<Staged, String> {
    let root = rec.open(RUN, exec_label, run, None);
    let span = |rec: &mut Recorder, name: &'static str| rec.open(name, exec_label, run, Some(root));
    let mut counts = Counts::default();

    let s = span(rec, IO_LOAD);
    let corpus = hpa_io::load_corpus_parallel(exec, "input", corpus_dir)
        .map_err(|e| format!("loading corpus: {e}"))?;
    rec.close(s);
    counts.corpus_bytes = corpus.total_bytes();

    let tfidf = TfIdf::new(workflow.tfidf);
    let s = span(rec, COUNT_WORDS);
    let words = tfidf.count_words(exec, &corpus);
    rec.close(s);
    counts.tokens = words.per_doc.iter().map(|d| d.total_terms).sum();
    counts.dict_heap_bytes = words.heap_bytes();

    let s = span(rec, BUILD_VOCAB);
    let vocab = tfidf.build_vocab(exec, &words);
    rec.close(s);

    let s = span(rec, TRANSFORM);
    let model = tfidf.transform(exec, &words, &vocab);
    rec.close(s);
    counts.vocab_terms = model.vocab.len() as u64;
    counts.nnz = model.vectors.iter().map(|v| v.nnz() as u64).sum();

    // Workflow::run drops the counts and the lookup vocabulary when the
    // TF/IDF stage returns.
    let s = span(rec, FREE);
    drop((words, vocab));
    rec.close(s);

    // The matrix edge: a file for the discrete strategy, an in-memory
    // hand-off for the fused one. As in Workflow::run, a discrete run
    // drops the TF/IDF model after the write, and a fused one keeps the
    // model's vocabulary until the run ends.
    let (vectors, dim, fused_vocab) = match workflow.strategy {
        Strategy::Discrete { .. } => {
            let s = span(rec, TRANSPORT_WRITE);
            let written = write_intermediate(exec, workflow, &model, intermediate);
            rec.close(s);
            drop(model);
            counts.file_bytes = written?;

            let s = span(rec, TRANSPORT_READ);
            let read = read_intermediate(exec, workflow, intermediate);
            rec.close(s);
            let (vectors, dim) = read?;
            (vectors, dim, None)
        }
        Strategy::Fused => (model.vectors, model.vocab.len(), Some(model.vocab)),
        Strategy::Planned { .. } => {
            return Err("the staged run does not mirror the planner".to_string())
        }
    };

    let s = span(rec, KMEANS_FIT);
    let clustering = KMeans::new(workflow.kmeans).fit(exec, &vectors, dim);
    rec.close(s);
    counts.iterations = clustering.iterations as u64;
    counts.assign = clustering.assign_stats;

    // The workflow's output phase, then the file write a user's run ends
    // with.
    let s = span(rec, OUTPUT);
    let mut out = Vec::with_capacity(clustering.assignments.len() * 12);
    for (i, a) in clustering.assignments.iter().enumerate() {
        let _ = writeln!(out, "{i},{a}");
    }
    std::fs::write(output, &out).map_err(|e| format!("writing output: {e}"))?;
    rec.close(s);

    // What Workflow::run and the user's run keep to the end is freed
    // there, inside the run but outside every layer span.
    drop((vectors, fused_vocab, corpus));
    rec.close(root);
    Ok(Staged {
        assignments: clustering.assignments,
        inertia: clustering.inertia,
        output: out,
        counts,
    })
}

/// Write `model` to `path` in the workflow's intermediate format, as its
/// discrete strategy does; returns the file's size in bytes.
fn write_intermediate(
    exec: &Exec,
    workflow: &Workflow,
    model: &TfIdfModel,
    path: &Path,
) -> Result<u64, String> {
    let file = std::fs::File::create(path).map_err(|e| format!("creating intermediate: {e}"))?;
    let file = BufWriter::new(file);
    let pipelined = workflow.discrete_io == DiscreteIo::Pipelined;
    let written = match (workflow.intermediate_format, pipelined) {
        (IntermediateFormat::Arff, true) => {
            hpa_tfidf::write_arff_overlapped(exec, model, file).map_err(|e| e.to_string())
        }
        (IntermediateFormat::Arff, false) => {
            hpa_tfidf::write_arff(exec, model, file).map_err(|e| e.to_string())
        }
        (IntermediateFormat::Binary, true) => {
            hpa_tfidf::write_colfmt_overlapped(exec, model, file).map_err(|e| e.to_string())
        }
        (IntermediateFormat::Binary, false) => {
            hpa_tfidf::write_colfmt(exec, model, file).map_err(|e| e.to_string())
        }
    };
    written?
        .flush()
        .map_err(|e| format!("flushing intermediate: {e}"))?;
    Ok(std::fs::metadata(path).map_err(|e| e.to_string())?.len())
}

/// Read the matrix back from `path` as the workflow's discrete strategy
/// does, then remove the file.
fn read_intermediate(
    exec: &Exec,
    workflow: &Workflow,
    path: &Path,
) -> Result<(Vec<SparseVec>, usize), String> {
    let file = BufReader::new(
        std::fs::File::open(path).map_err(|e| format!("opening intermediate: {e}"))?,
    );
    let pipelined = workflow.discrete_io == DiscreteIo::Pipelined;
    let read = match (workflow.intermediate_format, pipelined) {
        (IntermediateFormat::Arff, true) => {
            hpa_tfidf::read_arff_parallel(exec, file).map_err(|e| e.to_string())
        }
        (IntermediateFormat::Arff, false) => {
            hpa_tfidf::read_arff(exec, file).map_err(|e| e.to_string())
        }
        (IntermediateFormat::Binary, true) => {
            hpa_tfidf::read_colfmt_parallel(exec, file).map_err(|e| e.to_string())
        }
        (IntermediateFormat::Binary, false) => {
            hpa_tfidf::read_colfmt(exec, file).map_err(|e| e.to_string())
        }
    };
    std::fs::remove_file(path).map_err(|e| format!("removing intermediate: {e}"))?;
    read
}

/// The TF/IDF model of the corpus in `corpus_dir`, made untimed, for
/// `probe_transport`.
pub fn tfidf_model(
    exec: &Exec,
    workflow: &Workflow,
    corpus_dir: &Path,
) -> Result<TfIdfModel, String> {
    let corpus = hpa_io::load_corpus_parallel(exec, "input", corpus_dir)
        .map_err(|e| format!("loading corpus: {e}"))?;
    let tfidf = TfIdf::new(workflow.tfidf);
    let words = tfidf.count_words(exec, &corpus);
    let vocab = tfidf.build_vocab(exec, &words);
    Ok(tfidf.transform(exec, &words, &vocab))
}

/// Time the discrete transport the workflow is configured with (the
/// builder's default unless the workload names one) on `model`, under a
/// `transport.probe` root span with run id `run`: the write and read a
/// discrete run of the same workload would make. A fused workflow never
/// calls the transport, so this is how its transport layer is measured,
/// outside any staged run. The matrix read back must equal `model`'s bit
/// for bit. Returns the file's size in bytes.
#[allow(clippy::too_many_arguments)]
pub fn probe_transport(
    rec: &mut Recorder,
    run: u32,
    exec_label: &'static str,
    exec: &Exec,
    workflow: &Workflow,
    model: &TfIdfModel,
    intermediate: &Path,
) -> Result<u64, String> {
    let root = rec.open(PROBE, exec_label, run, None);
    let s = rec.open(TRANSPORT_WRITE, exec_label, run, Some(root));
    let written = write_intermediate(exec, workflow, model, intermediate);
    rec.close(s);
    let file_bytes = written?;
    let s = rec.open(TRANSPORT_READ, exec_label, run, Some(root));
    let read = read_intermediate(exec, workflow, intermediate);
    rec.close(s);
    rec.close(root);
    let (vectors, dim) = read?;
    if dim != model.vocab.len() {
        return Err(format!(
            "probe read back dimension {dim}, wrote {}",
            model.vocab.len()
        ));
    }
    if let Some(i) = vectors
        .iter()
        .zip(&model.vectors)
        .position(|(a, b)| a != b)
        .or((vectors.len() != model.vectors.len()).then_some(vectors.len()))
    {
        return Err(format!("probe read back document {i} differently"));
    }
    Ok(file_bytes)
}
