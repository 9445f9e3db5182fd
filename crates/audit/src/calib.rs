//! Calibration audit: fit cost-model scale factors from measured
//! ledgers and check whether the drift would flip an `Auto` selection.
//!
//! The analytic model predicts `predicted_ns` for every phase it
//! prices; a traced run measures what actually happened. Per phase the
//! audit fits the single scale `alpha` minimising the squared error of
//! `measured ≈ alpha × predicted` over the paired samples:
//! `alpha = Σ(measured·predicted) / Σ(predicted²)` — ordinary least
//! squares through the origin. `alpha ≈ 1` means the hard-coded
//! constants describe this host; `alpha` far from 1 quantifies drift.
//!
//! Drift only *matters* where the model makes a decision. The two
//! `Auto` selections in the workspace are the dictionary backend
//! ([`hpa_dict::costmodel::auto_pick`]) and the K-means assignment
//! kernel; [`dict_flip_checks`] and [`kernel_flip_check`] re-run those
//! decisions under the fitted constants and flag selections that flip.

use crate::ledger::RunLedger;
use hpa_dict::costmodel::{auto_scores, DictPhase};
use hpa_dict::DictKind;
use hpa_trace::Recording;
use std::collections::BTreeMap;

/// Fitted scale for one `(cat, name)` phase.
#[derive(Debug, Clone)]
pub struct FitRow {
    /// Phase category.
    pub cat: String,
    /// Phase name.
    pub name: String,
    /// Paired (prediction, span) samples behind the fit.
    pub samples: usize,
    /// Least-squares scale: `measured ≈ alpha × predicted`.
    pub alpha: f64,
}

/// Pair the k-th prediction of each `(cat, name)` with its k-th span,
/// both in time order (the order [`hpa_trace::take`] already sorted
/// them into). Returns `(predicted_ns, measured_ns)` sample lists.
pub fn paired_samples(rec: &Recording) -> BTreeMap<(String, String), Vec<(u64, u64)>> {
    let mut spans: BTreeMap<(&str, &str), Vec<u64>> = BTreeMap::new();
    for s in &rec.spans {
        spans.entry((s.cat, s.name)).or_default().push(s.dur_ns);
    }
    let mut out: BTreeMap<(String, String), Vec<(u64, u64)>> = BTreeMap::new();
    let mut taken: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for p in &rec.predictions {
        let key = (p.cat, p.name);
        let k = taken.entry(key).or_insert(0);
        if let Some(&dur) = spans.get(&key).and_then(|durs| durs.get(*k)) {
            out.entry((p.cat.to_string(), p.name.to_string()))
                .or_default()
                .push((p.predicted_ns, dur));
        }
        *k += 1;
    }
    out
}

/// Least-squares-through-origin fit per phase. Phases with no pairs (or
/// all-zero predictions) are skipped.
pub fn fit_scales(pairs: &BTreeMap<(String, String), Vec<(u64, u64)>>) -> Vec<FitRow> {
    pairs
        .iter()
        .filter_map(|((cat, name), samples)| {
            let sum_pm: f64 = samples.iter().map(|&(p, m)| p as f64 * m as f64).sum();
            let sum_pp: f64 = samples.iter().map(|&(p, _)| (p as f64).powi(2)).sum();
            if sum_pp <= 0.0 {
                return None;
            }
            Some(FitRow {
                cat: cat.clone(),
                name: name.clone(),
                samples: samples.len(),
                alpha: sum_pm / sum_pp,
            })
        })
        .collect()
}

/// Look up the fitted alpha for a phase, defaulting to 1.0 (no
/// evidence, no adjustment).
pub fn alpha_for(fits: &[FitRow], cat: &str, name: &str) -> f64 {
    fits.iter()
        .find(|f| f.cat == cat && f.name == name)
        .map_or(1.0, |f| f.alpha)
}

/// A re-run `Auto` decision under fitted constants.
#[derive(Debug, Clone)]
pub struct SelectionCheck {
    /// Which selection: `"dict"` or `"kmeans-assign"`.
    pub domain: &'static str,
    /// Human context, e.g. `"wordcount @ 8 threads (alpha 1.73)"`.
    pub context: String,
    /// What the hard-coded model picks.
    pub model_pick: String,
    /// What the recalibrated (or measured) ranking picks.
    pub audited_pick: String,
    /// True when the two picks differ — drift that changes behaviour.
    pub flipped: bool,
}

/// Re-score [`auto_scores`]' candidates with the CPU component scaled
/// by `alpha`, keeping the bandwidth-weighted memory term. The scalar
/// score is `cpu·alpha + mem·bw`; since `score = cpu + mem·bw`, the
/// memory term is recovered as `score - cpu` without re-deriving the
/// contention weight.
pub fn rescored_pick(phase: DictPhase, threads: usize, alpha: f64) -> DictKind {
    let scores = auto_scores(phase, threads);
    let mut best = scores[0].0;
    let mut best_score = f64::INFINITY;
    for (kind, cost, score) in scores {
        let rescored = cost.cpu_ns * alpha + (score - cost.cpu_ns);
        if rescored < best_score {
            best = kind;
            best_score = rescored;
        }
    }
    best
}

/// Map a dict phase onto the workflow phase whose fitted alpha applies
/// to it: per-document counting and the merge tail live inside
/// `tfidf/count-words`; vocabulary lookups inside `tfidf/transform`.
fn dict_phase_alpha(fits: &[FitRow], phase: DictPhase) -> f64 {
    match phase {
        DictPhase::WordCount | DictPhase::Merge => alpha_for(fits, "tfidf", "count-words"),
        DictPhase::Lookup => alpha_for(fits, "tfidf", "transform"),
    }
}

/// Check all three dict `Auto` selections at `threads` against the
/// fitted constants.
pub fn dict_flip_checks(fits: &[FitRow], threads: usize) -> Vec<SelectionCheck> {
    [
        (DictPhase::WordCount, "wordcount"),
        (DictPhase::Merge, "merge"),
        (DictPhase::Lookup, "lookup"),
    ]
    .into_iter()
    .map(|(phase, label)| {
        let alpha = dict_phase_alpha(fits, phase);
        let model = hpa_dict::costmodel::auto_pick(phase, threads);
        let audited = rescored_pick(phase, threads, alpha);
        SelectionCheck {
            domain: "dict",
            context: format!("{label} @ {threads} threads (alpha {alpha:.3})"),
            model_pick: model.label().to_string(),
            audited_pick: audited.label().to_string(),
            flipped: model != audited,
        }
    })
    .collect()
}

/// Compare the model's assignment-kernel ranking with the measured one.
/// `per_kernel` holds one traced ledger per kernel arm; the check reads
/// each arm's `kmeans/assign` row and asks whether the kernel the model
/// ranks fastest is also the measured fastest.
pub fn kernel_flip_check(per_kernel: &[(String, RunLedger)]) -> Option<SelectionCheck> {
    let mut ranked: Vec<(&str, u64, u64)> = Vec::new();
    for (kernel, ledger) in per_kernel {
        let row = ledger.row("kmeans", "assign")?;
        if row.predict_count == 0 || row.span_count == 0 {
            return None;
        }
        ranked.push((kernel, row.predicted_ns, row.measured_ns));
    }
    if ranked.len() < 2 {
        return None;
    }
    let predicted_best = ranked.iter().min_by_key(|r| r.1)?.0;
    let measured_best = ranked.iter().min_by_key(|r| r.2)?.0;
    Some(SelectionCheck {
        domain: "kmeans-assign",
        context: format!("{} kernel arms", ranked.len()),
        model_pick: predicted_best.to_string(),
        audited_pick: measured_best.to_string(),
        flipped: predicted_best != measured_best,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_dict::costmodel::phase_op_cost;
    use hpa_dict::costmodel::AUTO_CANDIDATES;
    use hpa_trace::{PredictRec, SpanRec};

    fn recording(spans: Vec<SpanRec>, predictions: Vec<PredictRec>) -> Recording {
        Recording {
            spans,
            counters: Vec::new(),
            events: Vec::new(),
            predictions,
            threads: vec![(1, "main".to_string())],
        }
    }

    fn span(name: &'static str, start: u64, dur: u64) -> SpanRec {
        SpanRec {
            cat: "tfidf",
            name,
            start_ns: start,
            dur_ns: dur,
            arg: None,
            tid: 1,
        }
    }

    fn predict(name: &'static str, ts: u64, ns: u64) -> PredictRec {
        PredictRec {
            cat: "tfidf",
            name,
            ts_ns: ts,
            predicted_ns: ns,
            tid: 1,
        }
    }

    #[test]
    fn least_squares_recovers_an_exact_scale() {
        // measured = 2 × predicted, exactly, across three samples.
        let rec = recording(
            vec![
                span("transform", 0, 200),
                span("transform", 10, 600),
                span("transform", 20, 1_000),
            ],
            vec![
                predict("transform", 0, 100),
                predict("transform", 10, 300),
                predict("transform", 20, 500),
            ],
        );
        let fits = fit_scales(&paired_samples(&rec));
        assert_eq!(fits.len(), 1);
        assert_eq!(fits[0].samples, 3);
        assert!((fits[0].alpha - 2.0).abs() < 1e-9);
        assert!((alpha_for(&fits, "tfidf", "transform") - 2.0).abs() < 1e-9);
        assert!((alpha_for(&fits, "tfidf", "absent") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pairing_is_positional_and_ignores_unmatched_tails() {
        // Two predictions but only one span: the second prediction has
        // no partner and must not fabricate a sample.
        let rec = recording(
            vec![span("count-words", 0, 500)],
            vec![
                predict("count-words", 0, 400),
                predict("count-words", 10, 999),
            ],
        );
        let pairs = paired_samples(&rec);
        let samples = &pairs[&("tfidf".to_string(), "count-words".to_string())];
        assert_eq!(samples, &vec![(400, 500)]);
    }

    #[test]
    fn unit_alpha_never_flips_the_dict_selection() {
        for threads in [1, 4, 20] {
            for check in dict_flip_checks(&[], threads) {
                assert!(
                    !check.flipped,
                    "alpha=1 flipped {}: {} vs {}",
                    check.context, check.model_pick, check.audited_pick
                );
            }
        }
    }

    #[test]
    fn extreme_cpu_drift_flips_a_selection_when_rankings_diverge() {
        // When the cheapest-CPU candidate differs from the cheapest-
        // memory candidate, some alpha must flip the pick: alpha → ∞
        // selects on CPU alone, alpha → 0 on memory alone.
        let threads = 20;
        for phase in [DictPhase::WordCount, DictPhase::Merge, DictPhase::Lookup] {
            let costs: Vec<_> = AUTO_CANDIDATES
                .iter()
                .map(|&k| (k, phase_op_cost(k, phase)))
                .collect();
            let cpu_best = costs
                .iter()
                .min_by(|a, b| a.1.cpu_ns.total_cmp(&b.1.cpu_ns))
                .unwrap()
                .0;
            let mem_best = costs
                .iter()
                .min_by(|a, b| a.1.mem_bytes.total_cmp(&b.1.mem_bytes))
                .unwrap()
                .0;
            if cpu_best == mem_best {
                continue; // degenerate phase: no alpha can flip it
            }
            let flipped = [1e-4, 1e4].iter().any(|&alpha| {
                rescored_pick(phase, threads, alpha) != rescored_pick(phase, threads, 1.0)
            });
            assert!(flipped, "divergent rankings but no alpha flipped {phase:?}");
        }
    }

    #[test]
    fn kernel_check_flags_a_model_measurement_disagreement() {
        use crate::ledger::RunLedger;
        let fast_predicted_slow_measured = recording(
            vec![SpanRec {
                cat: "kmeans",
                name: "assign",
                start_ns: 0,
                dur_ns: 9_000,
                arg: None,
                tid: 1,
            }],
            vec![PredictRec {
                cat: "kmeans",
                name: "assign",
                ts_ns: 0,
                predicted_ns: 1_000,
                tid: 1,
            }],
        );
        let slow_predicted_fast_measured = recording(
            vec![SpanRec {
                cat: "kmeans",
                name: "assign",
                start_ns: 0,
                dur_ns: 2_000,
                arg: None,
                tid: 1,
            }],
            vec![PredictRec {
                cat: "kmeans",
                name: "assign",
                ts_ns: 0,
                predicted_ns: 5_000,
                tid: 1,
            }],
        );
        let arms = vec![
            (
                "naive".to_string(),
                RunLedger::from_recording("naive", 1, &fast_predicted_slow_measured, 4.0),
            ),
            (
                "blocked+pruned".to_string(),
                RunLedger::from_recording("blocked+pruned", 1, &slow_predicted_fast_measured, 4.0),
            ),
        ];
        let check = kernel_flip_check(&arms).unwrap();
        assert_eq!(check.model_pick, "naive");
        assert_eq!(check.audited_pick, "blocked+pruned");
        assert!(check.flipped);
    }
}
