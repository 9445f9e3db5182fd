//! The correctness check every timed run passes through.
//!
//! The reference is the workflow run once in set-up on
//! `Exec::simulated(nproc, ..)`: on one thread, cut into the pool's
//! chunks. A run on the pool must reproduce its assignments, inertia
//! and output bytes bit for bit; the structural checks catch a broken
//! answer even if the reference itself were wrong.

/// The single-thread answer a run is compared with.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Number of documents in the corpus.
    pub docs: usize,
    /// Number of clusters.
    pub k: usize,
    /// Cluster per document.
    pub assignments: Vec<u32>,
    /// Final inertia.
    pub inertia: f64,
    /// The serialized assignments the workflow writes out.
    pub output: Vec<u8>,
}

impl Reference {
    /// Check a run's clustering and the output bytes it wrote.
    pub fn check(&self, assignments: &[u32], inertia: f64, output: &[u8]) -> Result<(), String> {
        self.structure(assignments, inertia)?;
        if inertia.to_bits() != self.inertia.to_bits() {
            return Err(format!(
                "inertia {inertia:e} differs from the reference {:e}",
                self.inertia
            ));
        }
        if let Some(i) = assignments
            .iter()
            .zip(&self.assignments)
            .position(|(a, b)| a != b)
        {
            return Err(format!(
                "document {i} is in cluster {} but the reference has {}",
                assignments[i], self.assignments[i]
            ));
        }
        if output != self.output {
            return Err("output bytes differ from the reference".to_string());
        }
        Ok(())
    }

    /// Check the reference's own answer has the shape of a clustering.
    pub fn structure_check(&self) -> Result<(), String> {
        self.structure(&self.assignments, self.inertia)
    }

    /// One assignment per document, each below k, and a finite inertia.
    fn structure(&self, assignments: &[u32], inertia: f64) -> Result<(), String> {
        if assignments.len() != self.docs {
            return Err(format!(
                "{} assignments for {} documents",
                assignments.len(),
                self.docs
            ));
        }
        if let Some(a) = assignments.iter().find(|&&a| a as usize >= self.k) {
            return Err(format!("assignment {a} is not below k = {}", self.k));
        }
        if !inertia.is_finite() {
            return Err(format!("inertia {inertia} is not finite"));
        }
        Ok(())
    }

    /// Confirm the check rejects a corrupted copy of the reference's own
    /// answer, so a check that passes everything cannot go unnoticed.
    pub fn self_test(&self) -> Result<(), String> {
        self.check(&self.assignments, self.inertia, &self.output)
            .map_err(|e| format!("the reference fails its own check: {e}"))?;
        let mut corrupted = self.assignments.clone();
        if let Some(a) = corrupted.first_mut() {
            *a = (*a + 1) % self.k as u32;
        }
        if self.k > 1 && self.check(&corrupted, self.inertia, &self.output).is_ok() {
            return Err("the check accepts a corrupted assignment vector".to_string());
        }
        Ok(())
    }
}

/// Attempted and failed runs. A run fails if it errors or its check
/// fails.
#[derive(Debug, Default)]
pub struct Tally {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that errored or failed their check.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
}

impl Tally {
    /// Count one run.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }

    /// Share of attempted runs that passed.
    pub fn ok_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OUT: &[u8] = b"0,0\n1,1\n2,1\n";

    fn reference() -> Reference {
        Reference {
            docs: 3,
            k: 2,
            assignments: vec![0, 1, 1],
            inertia: 1.5,
            output: OUT.to_vec(),
        }
    }

    #[test]
    fn identical_answer_passes() {
        let r = reference();
        assert!(r.check(&[0, 1, 1], 1.5, OUT).is_ok());
        assert!(r.self_test().is_ok());
    }

    #[test]
    fn corrupted_answers_fail() {
        let r = reference();
        assert!(r.check(&[1, 1, 1], 1.5, OUT).is_err(), "moved document");
        assert!(
            r.check(&[0, 1, 2], 1.5, OUT).is_err(),
            "assignment not below k"
        );
        assert!(r.check(&[0, 1], 1.5, OUT).is_err(), "missing document");
        assert!(
            r.check(&[0, 1, 1], f64::NAN, OUT).is_err(),
            "non-finite inertia"
        );
        assert!(
            r.check(&[0, 1, 1], 1.5 + f64::EPSILON, OUT).is_err(),
            "inertia one ulp off"
        );
        assert!(
            r.check(&[0, 1, 1], 1.5, b"0,0\n").is_err(),
            "different output"
        );
    }

    #[test]
    fn a_corrupted_assignment_vector_counts_as_a_failed_run() {
        let r = reference();
        let mut tally = Tally::default();
        tally.record(r.check(&r.assignments, r.inertia, OUT));
        let mut corrupted = r.assignments.clone();
        corrupted[2] = 0;
        tally.record(r.check(&corrupted, r.inertia, OUT));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.ok_frac(), 0.5);
        assert!(tally.first_error.unwrap().contains("document 2"));
    }
}
