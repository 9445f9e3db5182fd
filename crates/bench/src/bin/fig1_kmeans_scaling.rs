//! Figure 1 — self-relative scalability of the K-means operator.
//!
//! The paper clusters each corpus's normalized TF/IDF vectors into 8
//! clusters and plots self-relative speedup against thread count: the
//! NSF Abstracts corpus reaches ~8x (more documents → more parallel
//! work per serial reduction), the Mix corpus saturates near 2.5x.
//! The fits pin `AssignKernel::Naive`, the paper's per-centroid loop:
//! the figure models the original implementation, not this repo's
//! blocked+pruned kernel.

use hpa_bench::{speedups, BenchConfig};
use hpa_dict::DictKind;
use hpa_kmeans::{AssignKernel, KMeans, KMeansConfig};
use hpa_metrics::report::speedup_table;
use hpa_metrics::{ExperimentReport, Series};
use hpa_tfidf::{TfIdf, TfIdfConfig};

fn main() {
    let cfg = BenchConfig::from_env();
    let mut report = ExperimentReport::new(
        "figure1",
        "Self-relative performance scalability of the K-Means operator (K=8)",
        &cfg.mode.describe(),
        &cfg.scale_label(),
    );

    let mut series = Vec::new();
    for (name, corpus) in [("NSF abstracts", cfg.nsf()), ("Mix", cfg.mix())] {
        // Prepare vectors once, outside the measured region.
        let prep_exec = hpa_exec::Exec::sequential();
        let tfidf = TfIdf::new(TfIdfConfig {
            dict_kind: DictKind::BTree,
            grain: 0,
            charge_input_io: false,
            ..Default::default()
        });
        let model = tfidf.fit(&prep_exec, &corpus);
        let dim = model.vocab.len();
        eprintln!(
            "{name}: {} docs, vocabulary {dim}, running thread sweep {:?}",
            corpus.len(),
            cfg.threads
        );

        let mut times = Vec::new();
        for &t in &cfg.threads {
            let exec = cfg.mode.exec(t);
            let t0 = exec.now();
            let km = KMeans::new(KMeansConfig {
                k: 8,
                max_iters: 10,
                tol: 0.0, // fixed iteration count: scalability, not quality
                seed: cfg.seed,
                kernel: AssignKernel::Naive,
                ..Default::default()
            });
            let fitted = km.fit(&exec, &model.vectors, dim);
            let elapsed = (exec.now() - t0).as_secs_f64();
            times.push(elapsed);
            eprintln!("  threads={t}: {elapsed:.3}s ({} iters)", fitted.iterations);
        }
        let mut s = Series::new(name);
        for (&t, &sp) in cfg.threads.iter().zip(speedups(&times).iter()) {
            s.push(t as f64, sp);
        }
        series.push(s);

        let mut tt = hpa_metrics::Table::new(
            &format!("K-means execution time, {name}"),
            &["threads", "seconds"],
        );
        for (&t, &secs) in cfg.threads.iter().zip(&times) {
            tt.row(&[t.to_string(), format!("{secs:.3}")]);
        }
        report.add_table(tt);
    }

    report.add_table(speedup_table(
        "Figure 1: self-relative speedup of the K-Means operator",
        "threads",
        &series,
    ));
    report.note("paper: NSF abstracts ~8x near 20 threads; Mix ~2.5x");
    cfg.emit(&report);
}
