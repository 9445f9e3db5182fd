//! End-to-end tests of the `hpa` command-line binary: generate a corpus,
//! cluster it, export TF/IDF, train and predict — all through the real
//! executable.

use std::path::PathBuf;
use std::process::Command;

fn hpa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hpa"))
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hpa_cli_test_{tag}_{}", std::process::id()))
}

#[test]
fn full_cli_round_trip() {
    let corpus_dir = tmp("corpus");
    let model_path = tmp("model.txt");
    let clusters_path = tmp("clusters.csv");
    let arff_path = tmp("scores.arff");

    // generate
    let out = hpa()
        .args([
            "generate", "--preset", "mix", "--scale", "0.002", "--seed", "9",
        ])
        .arg("--out")
        .arg(&corpus_dir)
        .output()
        .expect("run hpa generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let n_files = std::fs::read_dir(&corpus_dir).unwrap().count();
    assert!(n_files > 10, "corpus has {n_files} files");

    // cluster
    let out = hpa()
        .args(["cluster", "--k", "3", "--threads", "4"])
        .arg("--input")
        .arg(&corpus_dir)
        .arg("--out")
        .arg(&clusters_path)
        .output()
        .expect("run hpa cluster");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let clusters = std::fs::read_to_string(&clusters_path).unwrap();
    assert_eq!(clusters.lines().count(), n_files);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("input+wc"),
        "phase report on stderr: {stderr}"
    );

    // tfidf export
    let out = hpa()
        .arg("tfidf")
        .arg("--input")
        .arg(&corpus_dir)
        .arg("--out")
        .arg(&arff_path)
        .output()
        .expect("run hpa tfidf");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let arff = std::fs::read_to_string(&arff_path).unwrap();
    assert!(arff.starts_with("@RELATION"));
    assert!(arff.contains("@DATA"));

    // train + predict
    let out = hpa()
        .args(["train", "--k", "3"])
        .arg("--input")
        .arg(&corpus_dir)
        .arg("--model")
        .arg(&model_path)
        .output()
        .expect("run hpa train");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = hpa()
        .arg("predict")
        .arg("--input")
        .arg(&corpus_dir)
        .arg("--model")
        .arg(&model_path)
        .output()
        .expect("run hpa predict");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let predictions = String::from_utf8_lossy(&out.stdout);
    assert_eq!(predictions.lines().count(), n_files);
    for line in predictions.lines() {
        let (_, cluster) = line.rsplit_once(',').expect("name,cluster");
        let c: u32 = cluster.parse().expect("numeric cluster id");
        assert!(c < 3);
    }

    std::fs::remove_dir_all(&corpus_dir).ok();
    for p in [&model_path, &clusters_path, &arff_path] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let out = hpa().arg("frobnicate").output().expect("run hpa");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn missing_required_flag_fails_cleanly() {
    let out = hpa().arg("cluster").output().expect("run hpa");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));
}

#[test]
fn help_prints_usage() {
    let out = hpa().arg("--help").output().expect("run hpa");
    assert!(out.status.success());
    let usage = String::from_utf8_lossy(&out.stdout);
    assert!(usage.contains("USAGE"));
    assert!(
        usage.contains("arena"),
        "every --dict value is listed: {usage}"
    );
}

#[test]
fn bad_flag_values_exit_with_an_error_not_a_panic() {
    // Each row is a command line that must end in exit 1 with a message
    // naming the problem — not a library assert's panic (exit 101).
    let corpus_dir = tmp("bad_flags_corpus");
    std::fs::create_dir_all(&corpus_dir).unwrap();
    std::fs::write(corpus_dir.join("a.txt"), "alpha beta alpha").unwrap();
    std::fs::write(corpus_dir.join("b.txt"), "beta beta gamma").unwrap();
    let input = corpus_dir.to_str().unwrap();
    let model = tmp("bad_flags_model");
    let model = model.to_str().unwrap();
    let out_dir = tmp("bad_flags_out");
    let out_dir = out_dir.to_str().unwrap();
    let rows: &[(&[&str], &str)] = &[
        (
            &["cluster", "--input", input, "--threads", "0"],
            "--threads",
        ),
        (
            &["tfidf", "--input", input, "--threads", "0", "--out", model],
            "--threads",
        ),
        (
            &[
                "train",
                "--input",
                input,
                "--threads",
                "0",
                "--model",
                model,
            ],
            "--threads",
        ),
        (
            &[
                "predict",
                "--input",
                input,
                "--threads",
                "0",
                "--model",
                model,
            ],
            "--threads",
        ),
        (&["cluster", "--input", input, "--k", "0"], "--k"),
        (
            &["train", "--input", input, "--k", "0", "--model", model],
            "--k",
        ),
        (&["generate", "--scale", "-1", "--out", out_dir], "--scale"),
        (&["generate", "--scale", "nan", "--out", out_dir], "--scale"),
        (
            &["cluster", "--input", input, "--dict", "auto"],
            "unknown dictionary kind",
        ),
    ];
    for (args, needle) in rows {
        let out = hpa().args(*args).output().expect("run hpa");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: stderr {stderr}");
        assert!(stderr.contains(needle), "{args:?}: stderr {stderr}");
    }
    std::fs::remove_dir_all(&corpus_dir).ok();
    std::fs::remove_file(model).ok();
    std::fs::remove_dir_all(out_dir).ok();
}

#[test]
fn predict_rejects_bad_model_headers_with_an_error() {
    // Untrusted model files: a huge centroid count and a centroid width
    // other than the vocabulary size must both end in an error exit —
    // not a panic (101) or an allocation abort (134).
    let corpus_dir = tmp("bad_model_corpus");
    std::fs::create_dir_all(&corpus_dir).unwrap();
    std::fs::write(corpus_dir.join("a.txt"), "alpha beta alpha").unwrap();
    std::fs::write(corpus_dir.join("b.txt"), "beta beta").unwrap();
    let header = "HPA-PIPELINE v1\nnum_docs 2\ndict map\nvocab 2\nalpha 1\nbeta 2\n";
    for (tag, centroids) in [
        ("huge_k", "centroids 99999999999999 2\n0.5 0.5\n"),
        ("dim_mismatch", "centroids 1 1\n0.5\n"),
    ] {
        let model_path = tmp(tag);
        std::fs::write(&model_path, format!("{header}{centroids}")).unwrap();
        let out = hpa()
            .arg("predict")
            .arg("--input")
            .arg(&corpus_dir)
            .arg("--model")
            .arg(&model_path)
            .output()
            .expect("run hpa predict");
        std::fs::remove_file(&model_path).ok();
        let code = out.status.code();
        assert!(
            !out.status.success() && code != Some(101) && code != Some(134) && code.is_some(),
            "{tag}: exit {code:?}, stderr {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("loading model"),
            "{tag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::remove_dir_all(&corpus_dir).ok();
}
