//! Minimal JSON readers for the ingest layer.
//!
//! Every artifact this workspace writes is hand-assembled single-line
//! JSON (manifests, probe JSONL, serve event logs, `BENCH_*.json`), so
//! ingest only needs three things: pull one string or number field out of
//! an object, slice out one balanced `{...}` sub-object, and flatten a
//! whole document's numeric leaves into dotted paths. No tree is ever
//! built. Field lookups see top-level members only: a key of the same
//! name inside a nested object, or text inside a string, never matches.

/// Index of the value of the top-level member `"key"` of the object
/// `line`, with any whitespace before it skipped — our writers emit
/// compact JSON, but `BENCH_*.json` snapshots are pretty-printed. An
/// object cut short after the member (the head of a pretty-printed
/// document) still answers.
fn after_key(line: &str, key: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    if bytes.get(pos) != Some(&b'{') {
        return None;
    }
    pos += 1;
    loop {
        skip_ws(bytes, &mut pos);
        match bytes.get(pos)? {
            b',' => {
                pos += 1;
                continue;
            }
            b'"' => {}
            _ => return None,
        }
        let name_start = pos + 1;
        skip_string(bytes, &mut pos)?;
        let name = &line[name_start..pos - 1];
        skip_ws(bytes, &mut pos);
        if bytes.get(pos) != Some(&b':') {
            return None;
        }
        pos += 1;
        skip_ws(bytes, &mut pos);
        if name == key {
            return Some(pos);
        }
        skip_value(bytes, &mut pos)?;
    }
}

/// Advances `pos` past the string starting at `bytes[*pos]` (a `"`),
/// escapes included; `None` when there is no string or it is cut short.
fn skip_string(bytes: &[u8], pos: &mut usize) -> Option<()> {
    if bytes.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    loop {
        match bytes.get(*pos)? {
            b'\\' => *pos += 2,
            b'"' => {
                *pos += 1;
                return Some(());
            }
            _ => *pos += 1,
        }
    }
}

/// Advances `pos` past the value starting at `bytes[*pos]`: a string, a
/// balanced object or array (string-aware), or a scalar.
fn skip_value(bytes: &[u8], pos: &mut usize) -> Option<()> {
    match bytes.get(*pos)? {
        b'"' => skip_string(bytes, pos),
        b'{' | b'[' => {
            let mut depth = 0usize;
            loop {
                match bytes.get(*pos)? {
                    b'"' => {
                        skip_string(bytes, pos)?;
                        continue;
                    }
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        depth -= 1;
                        if depth == 0 {
                            *pos += 1;
                            return Some(());
                        }
                    }
                    _ => {}
                }
                *pos += 1;
            }
        }
        _ => {
            while bytes
                .get(*pos)
                .is_some_and(|b| !matches!(b, b',' | b'}' | b']') && !b.is_ascii_whitespace())
            {
                *pos += 1;
            }
            Some(())
        }
    }
}

/// The raw (still escaped) value of `"key":"..."` in `line`.
fn raw_str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = after_key(line, key)?;
    let mut end = start;
    skip_string(line.as_bytes(), &mut end)?;
    Some(&line[start + 1..end - 1])
}

/// Unescapes the subset of JSON escapes our writers emit.
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// Value of `"key":"..."` in `line`, unescaped.
pub fn extract_str(line: &str, key: &str) -> Option<String> {
    raw_str_field(line, key).map(unescape)
}

/// Value of `"key":<number>` in `line`. `null` and non-numeric values
/// yield `None`.
pub fn extract_num(line: &str, key: &str) -> Option<f64> {
    let start = after_key(line, key)?;
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Value of `"key":<integer>` in `line`.
pub fn extract_u64(line: &str, key: &str) -> Option<u64> {
    let v = extract_num(line, key)?;
    if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 {
        Some(v as u64)
    } else {
        None
    }
}

/// The balanced `{...}` (or `[...]`) value of `"key":` in `line`,
/// including the brackets. String-aware: braces inside quoted values do
/// not count.
pub fn extract_object<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = after_key(line, key)?;
    if !matches!(line.as_bytes().get(start), Some(b'{' | b'[')) {
        return None;
    }
    let mut end = start;
    skip_value(line.as_bytes(), &mut end)?;
    Some(&line[start..end])
}

/// Flattens every numeric leaf of a JSON document into `(dotted.path,
/// value)` pairs, in document order. Array elements get their index as a
/// path segment (`fig5_threads_sweep_sec.0`). Strings, booleans and
/// nulls are skipped. This is how `BENCH_*.json` snapshots become rows.
pub fn flatten_numbers(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    walk_value(bytes, &mut pos, &mut String::new(), &mut out)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes after JSON value at offset {pos}"));
    }
    Ok(out)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn walk_value(
    bytes: &[u8],
    pos: &mut usize,
    path: &mut String,
    out: &mut Vec<(String, f64)>,
) -> Result<(), String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            loop {
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    Some(b',') => {
                        *pos += 1;
                        continue;
                    }
                    Some(b'"') => {
                        let key = parse_string(bytes, pos)?;
                        skip_ws(bytes, pos);
                        if bytes.get(*pos) != Some(&b':') {
                            return Err(format!("expected ':' at offset {pos}"));
                        }
                        *pos += 1;
                        let saved = path.len();
                        if !path.is_empty() {
                            path.push('.');
                        }
                        path.push_str(&key);
                        walk_value(bytes, pos, path, out)?;
                        path.truncate(saved);
                    }
                    _ => return Err(format!("malformed object at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut idx = 0usize;
            loop {
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    Some(b',') => {
                        *pos += 1;
                        continue;
                    }
                    Some(_) => {
                        let saved = path.len();
                        if !path.is_empty() {
                            path.push('.');
                        }
                        path.push_str(&idx.to_string());
                        walk_value(bytes, pos, path, out)?;
                        path.truncate(saved);
                        idx += 1;
                    }
                    None => return Err("unterminated array".to_string()),
                }
            }
        }
        Some(b'"') => {
            parse_string(bytes, pos)?;
            Ok(())
        }
        Some(b't') => expect_lit(bytes, pos, "true"),
        Some(b'f') => expect_lit(bytes, pos, "false"),
        Some(b'n') => expect_lit(bytes, pos, "null"),
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).unwrap_or("");
            let v: f64 = text
                .parse()
                .map_err(|_| format!("malformed number {text:?} at offset {start}"))?;
            out.push((path.clone(), v));
            Ok(())
        }
        None => Err("unexpected end of JSON".to_string()),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    let start = *pos + 1;
    skip_string(bytes, pos).ok_or_else(|| "unterminated string".to_string())?;
    let raw = std::str::from_utf8(&bytes[start..*pos - 1])
        .map_err(|e| format!("non-UTF-8 string: {e}"))?;
    Ok(unescape(raw))
}

fn expect_lit(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("malformed literal at offset {pos}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_extractors() {
        let line = r#"{"event":"done","job":3,"makespan_mean":1.25,"name":"a \"b\"","none":null}"#;
        assert_eq!(extract_str(line, "event").as_deref(), Some("done"));
        assert_eq!(extract_str(line, "name").as_deref(), Some("a \"b\""));
        assert_eq!(extract_num(line, "makespan_mean"), Some(1.25));
        assert_eq!(extract_u64(line, "job"), Some(3));
        assert_eq!(extract_num(line, "none"), None);
        assert_eq!(extract_str(line, "missing"), None);
        // Pretty-printed documents put whitespace after the colon.
        let pretty = "{\n  \"date\": \"2026-08-08\",\n  \"threads\": 4\n}";
        assert_eq!(extract_str(pretty, "date").as_deref(), Some("2026-08-08"));
        assert_eq!(extract_num(pretty, "threads"), Some(4.0));
    }

    #[test]
    fn lookups_match_top_level_keys_only() {
        // A nested member of the same name comes first; the top-level one
        // answers.
        let line = r#"{"config":{"seed":1,"name":"x"},"seed":2}"#;
        assert_eq!(extract_u64(line, "seed"), Some(2));
        assert_eq!(extract_str(line, "name"), None);
        assert_eq!(extract_u64(r#"{"config":{"seed":1}}"#, "seed"), None);
        let arr = r#"{"xs":[{"seed":1}],"seed":3}"#;
        assert_eq!(extract_u64(arr, "seed"), Some(3));
        // Text inside a string value is not a key.
        let quoted = r#"{"note":"\"seed\":5, {","seed":6}"#;
        assert_eq!(extract_u64(quoted, "seed"), Some(6));
        // Not an object, or cut short before the key: no answer.
        assert_eq!(extract_u64(r#"["seed",1]"#, "seed"), None);
        assert_eq!(extract_u64(r#"{"a":{"seed":1"#, "seed"), None);
        // The head of a pretty-printed document still answers for keys it
        // holds.
        let head = "{\n  \"date\": \"2026-08-08\",\n  \"host\": {\n    \"cores\": 2,";
        assert_eq!(extract_str(head, "date").as_deref(), Some("2026-08-08"));
        assert_eq!(extract_num(head, "cores"), None);
    }

    #[test]
    fn balanced_object_extraction() {
        let line = r#"{"seed":7,"config":{"kernel":"outer","nested":{"a":"}"},"n":10},"tail":1}"#;
        let obj = extract_object(line, "config").unwrap();
        assert_eq!(obj, r#"{"kernel":"outer","nested":{"a":"}"},"n":10}"#);
        let arr_line = r#"{"xs":[1,[2,3]],"y":0}"#;
        assert_eq!(extract_object(arr_line, "xs").unwrap(), "[1,[2,3]]");
        assert_eq!(extract_object(line, "seed"), None);
    }

    #[test]
    fn flatten_walks_nested_structures() {
        let text = r#"{"date":"2026-08-08","a":{"b":1,"c":[2,3.5,{"d":-4e1}]},"skip":true,"z":null,"e":0}"#;
        let flat = flatten_numbers(text).unwrap();
        assert_eq!(
            flat,
            vec![
                ("a.b".to_string(), 1.0),
                ("a.c.0".to_string(), 2.0),
                ("a.c.1".to_string(), 3.5),
                ("a.c.2.d".to_string(), -40.0),
                ("e".to_string(), 0.0),
            ]
        );
    }

    #[test]
    fn flatten_rejects_malformed_documents() {
        assert!(flatten_numbers("{\"a\":").is_err());
        assert!(flatten_numbers("{\"a\":1} extra").is_err());
        assert!(flatten_numbers("{\"a\":bogus}").is_err());
    }
}
