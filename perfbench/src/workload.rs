//! The benchmark's workloads: a corpus made from the seed, and the
//! workflow that clusters it.
//!
//! Each workflow takes the builder's defaults except for the settings
//! its workload names, so a change to a default is measured as users
//! get it.

use crate::topics::TopicSpec;
use hpa_core::{Workflow, WorkflowBuilder};
use hpa_corpus::{Corpus, CorpusSpec};
use hpa_kmeans::KMeansConfig;
use std::path::Path;

/// Scale of the Mix preset `mix-discrete` uses: about 2.3 K documents
/// and 6.3 MB.
const MIX_SCALE: f64 = 0.1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Mix, discrete, at most 2 Lloyd iterations: the intermediate goes
    /// through a file.
    MixDiscrete,
    /// Topic corpus, fused, k = 32, at most 6 Lloyd iterations: K-means
    /// does most of the work.
    TopicsK32,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::MixDiscrete, Workload::TopicsK32];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MixDiscrete => "mix-discrete",
            Workload::TopicsK32 => "topics-k32",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The corpus this workload clusters, made from `seed`.
    pub fn corpus(self, seed: u64) -> Corpus {
        match self {
            Workload::MixDiscrete => CorpusSpec::mix().scaled(MIX_SCALE).generate(seed),
            Workload::TopicsK32 => TopicSpec::default().generate(seed),
        }
    }

    /// The workflow; a discrete one keeps its intermediate file in
    /// `intermediate_dir`.
    pub fn workflow(self, intermediate_dir: &Path) -> Workflow {
        match self {
            // Left to converge, Lloyd on Mix stops after 2 iterations for
            // most seeds but runs 25 for some (seeds 301 and 309 of
            // 301-310), which adds up to half a run's time. Capped at 2,
            // every seed does the little K-means work the workload is
            // chosen for.
            Workload::MixDiscrete => WorkflowBuilder::new()
                .kmeans(KMeansConfig {
                    max_iters: 2,
                    ..Default::default()
                })
                .discrete_in(intermediate_dir.to_path_buf()),
            // Left to converge, Lloyd runs 8 to 15 iterations on this
            // corpus depending on the seed, which spreads run time by
            // 20% across seeds; every seed runs at least 6.
            Workload::TopicsK32 => WorkflowBuilder::new()
                .kmeans(KMeansConfig {
                    k: 32,
                    max_iters: 6,
                    ..Default::default()
                })
                .fused(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_exec::Exec;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("mix"), None);
    }

    /// If Lloyd stopped after two iterations, as it does on Mix, the
    /// workload would no longer exercise K-means.
    #[test]
    fn topics_k32_runs_lloyd_for_more_than_two_iterations() {
        let w = Workload::TopicsK32;
        let corpus = w.corpus(1);
        let outcome = w
            .workflow(Path::new("."))
            .run(&corpus, &Exec::pool(2))
            .expect("fused run");
        assert!(outcome.iterations > 2, "{} iterations", outcome.iterations);
    }
}
