//! A corpus with topic structure, built only from public `hpa_corpus`
//! items.
//!
//! The Mix preset draws every word from one Zipf vocabulary, so it has
//! no clusters and Lloyd converges in about two iterations. Real text
//! has clusters. Here each document is a background document over a
//! shared Zipf vocabulary followed by a shorter one over one of
//! `topics` per-topic vocabularies; the topic words are rare corpus-wide,
//! so their IDF weight pulls a topic's documents together and K-means
//! runs many iterations over a centroid matrix larger than the cache.

use hpa_corpus::words::Vocabulary;
use hpa_corpus::zipf::Zipf;
use hpa_corpus::{Corpus, CorpusSpec};
use hpa_rng::SplitMix64;

/// Decorrelates the vocabulary and per-part document streams from the
/// workload seed, so no two parts share a random stream.
const BACKGROUND_VOCAB: u64 = 0x7a11_0001;
const TOPIC_VOCAB: u64 = 0x7a11_0002;
const TOPIC_DOCS: u64 = 0x7a11_0003;
const TOPIC_PICK: u64 = 0x7a11_0004;

/// Parameters of a topic corpus.
#[derive(Debug, Clone)]
pub struct TopicSpec {
    /// Background text: one document per corpus document.
    pub background: CorpusSpec,
    /// Topic text appended to each document; `vocab_size` is per topic,
    /// and `num_docs` is unused.
    pub topic: CorpusSpec,
    /// Number of topics.
    pub topics: usize,
}

impl Default for TopicSpec {
    /// About 6 K documents and 5.9 MB, with 32 topics and a vocabulary
    /// of about 107 K terms.
    fn default() -> Self {
        let docs = 6_000;
        TopicSpec {
            background: CorpusSpec {
                name: "topics".to_string(),
                num_docs: docs,
                vocab_size: 60_000,
                zipf_exponent: 1.0,
                mean_doc_words: 120,
                doc_len_sigma: 0.5,
            },
            topic: CorpusSpec {
                name: "topics".to_string(),
                num_docs: docs,
                vocab_size: 3_000,
                zipf_exponent: 1.0,
                mean_doc_words: 50,
                doc_len_sigma: 0.5,
            },
            topics: 32,
        }
    }
}

impl TopicSpec {
    /// Generate the corpus. Deterministic in (`self`, `seed`).
    pub fn generate(&self, seed: u64) -> Corpus {
        let bg_zipf = Zipf::new(self.background.vocab_size, self.background.zipf_exponent);
        let bg_vocab = Vocabulary::new(self.background.vocab_size, seed ^ BACKGROUND_VOCAB);
        let topic_zipf = Zipf::new(self.topic.vocab_size, self.topic.zipf_exponent);
        let topic_vocabs: Vec<Vocabulary> = (0..self.topics as u64)
            .map(|t| {
                let mut rng = SplitMix64::seed_from_parts(seed ^ TOPIC_VOCAB, t);
                Vocabulary::new(self.topic.vocab_size, rng.next_u64())
            })
            .collect();
        let docs = (0..self.background.num_docs as u32)
            .map(|id| {
                let topic = SplitMix64::seed_from_parts(seed ^ TOPIC_PICK, id as u64)
                    .gen_index(self.topics);
                let mut doc = self.background.generate_doc(id, seed, &bg_zipf, &bg_vocab);
                let tail = self.topic.generate_doc(
                    id,
                    seed ^ TOPIC_DOCS,
                    &topic_zipf,
                    &topic_vocabs[topic],
                );
                doc.text.push_str(&tail.text);
                doc
            })
            .collect();
        Corpus::from_documents(&self.background.name, docs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TopicSpec {
        let mut spec = TopicSpec::default();
        spec.background.num_docs = 200;
        spec
    }

    #[test]
    fn same_seed_gives_byte_identical_documents() {
        let a = small().generate(5);
        let b = small().generate(5);
        assert_eq!(a.documents(), b.documents());
        let c = small().generate(6);
        assert_ne!(a.documents(), c.documents());
    }
}
