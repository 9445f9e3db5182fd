//! On-disk corpus layout.
//!
//! The paper's TF/IDF operator reads "independent files concurrently" —
//! one text file per document in a directory. This module writes and
//! reads that layout. Reading returns documents sorted by file name so
//! ids are stable regardless of directory iteration order.

use crate::{Corpus, Document};
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

/// Write one `.txt` file per document into `dir` (created if missing).
/// Returns the number of files written.
pub fn write_corpus(corpus: &Corpus, dir: &Path) -> io::Result<usize> {
    fs::create_dir_all(dir)?;
    for d in corpus.documents() {
        let mut f = fs::File::create(dir.join(&d.name))?;
        f.write_all(d.text.as_bytes())?;
    }
    Ok(corpus.len())
}

/// List the document files of a corpus directory, sorted by name.
pub fn list_documents(dir: &Path) -> io::Result<Vec<std::path::PathBuf>> {
    let mut paths: Vec<_> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "txt"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Prefix a file-read error with the path it came from, keeping its
/// kind: a bad file in a thousand-file corpus is otherwise nameless.
pub fn path_error(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Read a corpus previously written with [`write_corpus`]. Ids are
/// assigned in sorted file-name order.
pub fn read_corpus(name: &str, dir: &Path) -> io::Result<Corpus> {
    let paths = list_documents(dir)?;
    let mut docs = Vec::with_capacity(paths.len());
    for (i, p) in paths.iter().enumerate() {
        let text = fs::read_to_string(p).map_err(|e| path_error(p, e))?;
        let file_name = p
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("unnamed.txt")
            .to_string();
        docs.push(Document {
            id: i as u32,
            name: file_name,
            text,
        });
    }
    Ok(Corpus::from_documents(name, docs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CorpusSpec;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("hpa_corpus_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn round_trip_preserves_documents() {
        let dir = tmpdir("rt");
        let c = CorpusSpec::mix().scaled(0.001).generate(3);
        let n = write_corpus(&c, &dir).unwrap();
        assert_eq!(n, c.len());
        let back = read_corpus("Mix", &dir).unwrap();
        assert_eq!(back.len(), c.len());
        for (a, b) in c.documents().iter().zip(back.documents()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.name, b.name);
            assert_eq!(a.text, b.text);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn list_documents_sorted_and_filtered() {
        let dir = tmpdir("ls");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("b.txt"), "b").unwrap();
        fs::write(dir.join("a.txt"), "a").unwrap();
        fs::write(dir.join("ignore.dat"), "x").unwrap();
        let paths = list_documents(&dir).unwrap();
        let names: Vec<_> = paths
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(names, ["a.txt", "b.txt"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_utf8_file_error_names_the_file() {
        let dir = tmpdir("utf8");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("good.txt"), "fine text").unwrap();
        fs::write(dir.join("bad.txt"), [0x66, 0xff, 0xfe, 0x66]).unwrap();
        let err = read_corpus("x", &dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad.txt"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_errors() {
        let err = read_corpus("x", Path::new("/nonexistent/hpa/dir")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
