//! Append-only benchmark trajectories.
//!
//! Every `BENCH_*.json` is a schema-versioned document holding an *array*
//! of entries:
//!
//! ```json
//! {"schema":"qor-bench-serve/v2","entries":[{...},{...}]}
//! ```
//!
//! [`append`] reads the existing document (carrying the entries of a
//! document under an earlier version of the same schema family over
//! verbatim), pushes the new entry and rewrites the file under the current
//! schema. Entries
//! are kept verbatim as the bytes they were written with, so appending
//! never reformats history. The new document is written beside the old one
//! and renamed over it, so a run killed mid-write leaves the previous
//! document whole.

use std::io;
use std::path::Path;

use obs::Json;

/// Schema tag for the serving-benchmark trajectory document.
pub const SERVE_SCHEMA: &str = "qor-bench-serve/v2";

/// Schema tag for the incremental neighbor-sweep trajectory document
/// (`BENCH_incr.json`). v2 entries drop v1's warm-LRU stream
/// (`warm_us`, `speedup_vs_warm`).
pub const INCR_SCHEMA: &str = "qor-bench-incr/v2";

/// Appends `entry` to the trajectory document at `path`, creating the
/// document as needed.
/// Returns the number of entries the document now holds.
pub fn append(path: &Path, schema: &str, entry: &Json) -> io::Result<usize> {
    let mut entries = match std::fs::read_to_string(path) {
        Ok(text) => parse_entries(&text, schema)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{path:?}: {e}")))?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    entries.push(entry.to_string());
    let mut out = format!("{{\"schema\":{},\"entries\":[\n", Json::str(schema));
    for (i, e) in entries.iter().enumerate() {
        out.push_str(e);
        if i + 1 < entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, out)?;
    std::fs::rename(&tmp, path)?;
    Ok(entries.len())
}

/// Extracts the existing entries (as verbatim JSON strings) from a
/// trajectory document of `schema`'s family (any version); an empty/blank
/// file holds none.
fn parse_entries(text: &str, schema: &str) -> Result<Vec<String>, String> {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Ok(Vec::new());
    }
    let Some(body) = document_body(trimmed, schema) else {
        return Err(format!(
            "not a {schema} document: {:?}...",
            &trimmed[..trimmed.len().min(40)]
        ));
    };
    let body = body
        .strip_suffix("]}")
        .ok_or_else(|| format!("unterminated {schema} document"))?;
    split_top_level(body)
}

/// The entry list of a `{"schema":"<family>/<version>","entries":[...]}`
/// document whose family matches `schema`'s, or `None`.
fn document_body<'a>(text: &'a str, schema: &str) -> Option<&'a str> {
    let family = |tag: &str| tag.rsplit_once('/').map(|(f, _)| f.to_string());
    let rest = text.strip_prefix("{\"schema\":\"")?;
    let (tag, rest) = rest.split_once('"')?;
    if family(tag)? != family(schema)? {
        return None;
    }
    rest.strip_prefix(",\"entries\":[")
}

/// Splits a comma-separated list of JSON values at nesting depth zero,
/// honouring strings and escapes.
fn split_top_level(body: &str) -> Result<Vec<String>, String> {
    let mut entries = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    let mut start = 0usize;
    for (i, c) in body.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| "unbalanced brackets in trajectory".to_string())?
            }
            ',' if !in_str && depth == 0 => {
                let e = body[start..i].trim();
                if !e.is_empty() {
                    entries.push(e.to_string());
                }
                start = i + 1;
            }
            _ => {}
        }
    }
    if in_str || depth != 0 {
        return Err("unbalanced trajectory document".to_string());
    }
    let tail = body[start..].trim();
    if !tail.is_empty() {
        entries.push(tail.to_string());
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("qor-traj-{}-{name}.json", std::process::id()))
    }

    fn entry(n: u64) -> Json {
        Json::obj(vec![("bench", Json::str("t")), ("n", Json::UInt(n))])
    }

    #[test]
    fn creates_then_appends_in_order() {
        let path = tmp("append");
        let _ = std::fs::remove_file(&path);
        assert_eq!(append(&path, SERVE_SCHEMA, &entry(1)).unwrap(), 1);
        assert_eq!(append(&path, SERVE_SCHEMA, &entry(2)).unwrap(), 2);
        assert_eq!(append(&path, SERVE_SCHEMA, &entry(3)).unwrap(), 3);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"schema\":\"qor-bench-serve/v2\",\"entries\":["));
        let i1 = text.find("\"n\":1").unwrap();
        let i2 = text.find("\"n\":2").unwrap();
        let i3 = text.find("\"n\":3").unwrap();
        assert!(i1 < i2 && i2 < i3, "{text}");
        // the document parses with the serve-side reader too
        serve::json::parse(&text).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn earlier_schema_version_entries_carry_over() {
        let path = tmp("v1");
        let old = "{\"schema\":\"qor-bench-incr/v1\",\"entries\":[\n{\"n\":1,\"warm_us\":5},\n{\"n\":2}\n]}\n";
        std::fs::write(&path, old).unwrap();
        assert_eq!(append(&path, INCR_SCHEMA, &entry(3)).unwrap(), 3);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(
            "{\"schema\":\"qor-bench-incr/v2\",\"entries\":[\n{\"n\":1,\"warm_us\":5},\n{\"n\":2},"
        ));
        serve::json::parse(&text).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_garbage_instead_of_clobbering_it() {
        let path = tmp("garbage");
        // a bare object (no schema document) is refused like any garbage
        for garbage in ["not json at all", "{\"bench\":\"t\",\"n\":1}"] {
            std::fs::write(&path, garbage).unwrap();
            let err = append(&path, SERVE_SCHEMA, &entry(1)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            // the file is untouched
            assert_eq!(std::fs::read_to_string(&path).unwrap(), garbage);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_temp_file_neither_breaks_append_nor_drops_entries() {
        let path = tmp("stale");
        let _ = std::fs::remove_file(&path);
        append(&path, SERVE_SCHEMA, &entry(1)).unwrap();
        append(&path, SERVE_SCHEMA, &entry(2)).unwrap();
        // what a run killed while writing the next document leaves behind
        let mut stale = path.as_os_str().to_owned();
        stale.push(".tmp");
        std::fs::write(&stale, "{\"schema\":\"qor-bench-serve/v2\",\"entr").unwrap();
        assert_eq!(append(&path, SERVE_SCHEMA, &entry(3)).unwrap(), 3);
        let text = std::fs::read_to_string(&path).unwrap();
        for n in 1..=3 {
            assert!(text.contains(&format!("\"n\":{n}")), "{text}");
        }
        serve::json::parse(&text).unwrap();
        assert!(
            !std::path::Path::new(&stale).exists(),
            "temp file left behind"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn split_handles_nesting_strings_and_escapes() {
        let parts =
            split_top_level(r#"{"a":[1,2],"s":"x,\"y\",{z}"},{"b":{"c":[3,{"d":4}]}}"#).unwrap();
        assert_eq!(parts.len(), 2);
        assert!(parts[0].contains("{z}"));
        assert!(parts[1].ends_with("}"));
        assert!(split_top_level(r#"{"a":1"#).is_err());
    }
}
