//! A token-level Rust source model for the rules of [`crate::engine`].
//!
//! This is deliberately not a parser: the rules only need to know
//! (a) which bytes are code rather than comments or literal contents,
//! (b) where identifiers occur, and (c) where `#[cfg(test)]` regions and
//! `//` comments are. A byte-level state machine that blanks comments and
//! literal bodies — preserving the byte length so offsets and line numbers
//! keep pointing at the original text — gives all three without taking a
//! dependency on a real parser (the build environment is offline; see the
//! workspace manifest).

use std::collections::BTreeSet;
use std::path::Path;

/// One scanned source file.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes (stable in findings).
    pub rel: String,
    /// The original text.
    pub raw: String,
    /// Same length as `raw`, with comments and string/char literal
    /// contents blanked to spaces. Token scans run over this.
    pub code: String,
    /// Byte offset of each line start (index 0 = line 1).
    line_starts: Vec<usize>,
    /// Byte ranges covered by `#[cfg(test)]` items.
    test_ranges: Vec<(usize, usize)>,
    /// Byte ranges of the `//` comments, `//` through the end of the line:
    /// the only text a suppression may sit in — a string literal that
    /// merely spells one is not here.
    pub line_comments: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Read and scan `path`, labelling it `rel` in findings.
    pub fn read(path: &Path, rel: String) -> Result<SourceFile, String> {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("read {rel}: {e}"))?;
        Ok(SourceFile::parse(raw, rel))
    }

    /// Scan in-memory text (tests use this directly).
    pub fn parse(raw: String, rel: String) -> SourceFile {
        let (code, line_comments) = blank_noncode(&raw);
        let mut line_starts = vec![0usize];
        for (i, b) in raw.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let test_ranges = find_test_ranges(&code);
        SourceFile {
            rel,
            raw,
            code,
            line_starts,
            test_ranges,
            line_comments,
        }
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Whether the byte at `offset` is inside a `#[cfg(test)]` item.
    pub fn in_test(&self, offset: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| offset >= lo && offset < hi)
    }

    /// Byte offsets where `word` occurs as a whole identifier in code.
    pub fn idents(&self, word: &str) -> Vec<usize> {
        ident_occurrences(&self.code, word)
    }
}

/// Blank comments and string/char literal contents, preserving length.
/// Also returns the byte range of every `//` comment.
fn blank_noncode(src: &str) -> (String, Vec<(usize, usize)>) {
    let bytes = src.as_bytes();
    let mut out = bytes.to_vec();
    let mut line_comments = Vec::new();
    let n = bytes.len();
    let mut i = 0;
    while i < n {
        match bytes[i] {
            b'/' if i + 1 < n && bytes[i + 1] == b'/' => {
                let start = i;
                while i < n && bytes[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
                line_comments.push((start, i));
            }
            b'/' if i + 1 < n && bytes[i + 1] == b'*' => {
                let mut depth = 1usize;
                out[i] = b' ';
                out[i + 1] = b' ';
                i += 2;
                while i < n && depth > 0 {
                    if bytes[i] == b'/' && i + 1 < n && bytes[i + 1] == b'*' {
                        depth += 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < n && bytes[i + 1] == b'/' {
                        depth -= 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else {
                        if bytes[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'"' => i = blank_string(bytes, &mut out, i),
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                i = blank_raw_string(bytes, &mut out, i);
            }
            b'\'' => i = blank_char_or_lifetime(bytes, &mut out, i),
            _ => i += 1,
        }
    }
    // Blanked bytes are all ASCII spaces; multi-byte characters only occur
    // inside comments/literals, whose bytes were each replaced by a space,
    // so the result is valid UTF-8.
    (String::from_utf8(out).unwrap_or_default(), line_comments)
}

/// Blank a regular `"…"` literal starting at `i`; returns the index after.
fn blank_string(bytes: &[u8], out: &mut [u8], i: usize) -> usize {
    let n = bytes.len();
    let mut j = i + 1;
    while j < n {
        match bytes[j] {
            b'\\' if j + 1 < n => {
                out[j] = b' ';
                out[j + 1] = b' ';
                j += 2;
            }
            b'"' => return j + 1,
            b'\n' => j += 1, // keep the newline for line mapping
            _ => {
                out[j] = b' ';
                j += 1;
            }
        }
    }
    j
}

/// Does a raw (byte) string literal start at `i` (`r"`, `r#`, `br"`, …)?
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // Reject identifiers ending in r/b (e.g. `var"` cannot occur, but
    // `for r in …` precedes `r` with a space, so only the chars after
    // matter; still guard against preceding ident chars like `attr"`).
    if i > 0 && is_ident_byte(bytes[i - 1]) {
        return false;
    }
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if j >= bytes.len() || bytes[j] != b'r' {
        return false;
    }
    j += 1;
    while j < bytes.len() && bytes[j] == b'#' {
        j += 1;
    }
    j < bytes.len() && bytes[j] == b'"'
}

/// Blank a raw string starting at `i`; returns the index after it.
fn blank_raw_string(bytes: &[u8], out: &mut [u8], i: usize) -> usize {
    let n = bytes.len();
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    j += 1; // the 'r'
    let mut hashes = 0usize;
    while j < n && bytes[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote
    while j < n {
        if bytes[j] == b'"' {
            let mut k = j + 1;
            let mut seen = 0usize;
            while k < n && seen < hashes && bytes[k] == b'#' {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return k;
            }
        }
        if bytes[j] != b'\n' {
            out[j] = b' ';
        }
        j += 1;
    }
    j
}

/// Blank a `'x'` char literal, or skip a lifetime; returns the next index.
fn blank_char_or_lifetime(bytes: &[u8], out: &mut [u8], i: usize) -> usize {
    let n = bytes.len();
    if i + 1 < n && bytes[i + 1] == b'\\' {
        // Escaped char literal: blank to the closing quote.
        let mut j = i + 1;
        while j < n && bytes[j] != b'\'' {
            out[j] = b' ';
            j += 1;
        }
        return (j + 1).min(n);
    }
    // `'a'` is a char literal; `'a` followed by anything else is a
    // lifetime. Multi-byte chars ('∞') are also literals: find the
    // closing quote within 5 bytes.
    for j in (i + 2)..((i + 6).min(n)) {
        if bytes[j] == b'\'' {
            for b in out.iter_mut().take(j).skip(i + 1) {
                *b = b' ';
            }
            return j + 1;
        }
        if !(bytes[j - 1] as char).is_ascii() || is_ident_byte(bytes[j - 1]) {
            continue;
        }
        break;
    }
    i + 1 // lifetime: leave as-is
}

/// Whether `b` can be part of an identifier.
pub fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Byte ranges of `#[cfg(test)] <item>` (attribute through the end of the
/// item's brace block).
fn find_test_ranges(code: &str) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let bytes = code.as_bytes();
    let needle = b"#[cfg(test)]";
    let mut i = 0;
    while i + needle.len() <= bytes.len() {
        if &bytes[i..i + needle.len()] == needle {
            let start = i;
            let mut j = i + needle.len();
            // The item's body is the next `{`-balanced block.
            while j < bytes.len() && bytes[j] != b'{' {
                j += 1;
            }
            let end = match_brace(code, j).unwrap_or(bytes.len());
            ranges.push((start, end));
            i = end;
        } else {
            i += 1;
        }
    }
    ranges
}

/// Given the offset of an opening `{`/`[`/`(`, the offset just past its
/// matching close.
pub fn match_brace(code: &str, open: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let (o, c) = match bytes.get(open)? {
        b'{' => (b'{', b'}'),
        b'[' => (b'[', b']'),
        b'(' => (b'(', b')'),
        _ => return None,
    };
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if b == o {
            depth += 1;
        } else if b == c {
            depth -= 1;
            if depth == 0 {
                return Some(i + 1);
            }
        }
    }
    None
}

/// Offsets where `word` occurs as a whole identifier.
pub fn ident_occurrences(code: &str, word: &str) -> Vec<usize> {
    idents_in(code, word, (0, code.len()))
}

/// Occurrences of `word` as a whole identifier that start within `range`.
/// Scans only the range, so a rule asking about one function body does not
/// pay for the whole file.
pub fn idents_in(code: &str, word: &str, range: (usize, usize)) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let w = word.as_bytes();
    if w.is_empty() {
        return out;
    }
    let mut i = range.0;
    while i < range.1 && i + w.len() <= bytes.len() {
        if &bytes[i..i + w.len()] == w
            && (i == 0 || !is_ident_byte(bytes[i - 1]))
            && (i + w.len() == bytes.len() || !is_ident_byte(bytes[i + w.len()]))
        {
            out.push(i);
            i += w.len();
        } else {
            i += 1;
        }
    }
    out
}

/// Offsets of `[` that index an expression (previous non-space byte ends
/// an identifier, `)`, or `]`) — as opposed to attributes `#[…]`, macro
/// brackets `vec![…]`, and type/array syntax `[u8; 4]`.
pub fn index_sites(code: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let mut j = i;
        while j > 0 && bytes[j - 1] == b' ' {
            j -= 1;
        }
        if j == 0 {
            continue;
        }
        let prev = bytes[j - 1];
        if is_ident_byte(prev) {
            // Walk to the start of the identifier run: a leading apostrophe
            // makes it a lifetime, so `&'a [u8]` is slice-type syntax, not
            // an index expression.
            let mut k = j - 1;
            while k > 0 && is_ident_byte(bytes[k - 1]) {
                k -= 1;
            }
            if k > 0 && bytes[k - 1] == b'\'' {
                continue;
            }
            out.push(i);
        } else if prev == b')' || prev == b']' {
            out.push(i);
        }
    }
    out
}

/// Find the token sequence `words` within `code[range]`, skipping
/// whitespace between tokens. Returns the offset of the first token.
pub fn find_token_seq(code: &str, words: &[&str], range: (usize, usize)) -> Option<usize> {
    let (lo, hi) = range;
    let hi = hi.min(code.len());
    let first = words.first()?;
    let region = code.get(lo..hi)?;
    let candidates: Vec<usize> = if first.bytes().all(is_ident_byte) {
        ident_occurrences(region, first)
    } else {
        region.match_indices(*first).map(|(i, _)| i).collect()
    };
    'cand: for c in candidates {
        let mut pos = lo + c + first.len();
        for w in &words[1..] {
            let bytes = code.as_bytes();
            while pos < hi && bytes[pos].is_ascii_whitespace() {
                pos += 1;
            }
            let end = pos + w.len();
            if end > hi || &code[pos..end] != *w {
                continue 'cand;
            }
            if w.bytes().all(is_ident_byte)
                && (pos > 0 && is_ident_byte(bytes[pos - 1])
                    || end < code.len() && is_ident_byte(bytes[end]))
            {
                continue 'cand;
            }
            pos = end;
        }
        return Some(lo + c);
    }
    None
}

// ---------------------------------------------------------------------------
// Function items, call graph, loops, guards: the token-level machinery the
// conc and hotpath passes share. All of it operates over the blanked `code`
// text of a [`SourceFile`] and stays strictly file-local — calls are matched
// by name against the functions defined in the same file.
// ---------------------------------------------------------------------------

/// One function item: name and interior body range.
pub struct FnInfo {
    pub name: String,
    pub body: (usize, usize),
}

/// Every `fn name … { body }` item (free functions, methods, nested fns).
pub fn discover_fns(code: &str) -> Vec<FnInfo> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for occ in ident_occurrences(code, "fn") {
        let Some(ns) = nonws_from(code, occ + 2) else {
            continue;
        };
        if !is_ident_byte(bytes[ns]) {
            continue; // `fn(` pointer type
        }
        let ne = ident_end(bytes, ns);
        let name = code[ns..ne].to_string();
        // Skip the signature — parens/brackets only — to the body brace.
        let mut depth = 0i32;
        let mut j = ne;
        while j < bytes.len() {
            match bytes[j] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                b'{' if depth == 0 => {
                    if let Some(close) = match_brace(code, j) {
                        out.push(FnInfo {
                            name,
                            body: (j + 1, close - 1),
                        });
                    }
                    break;
                }
                b';' if depth == 0 => break, // trait method declaration
                _ => {}
            }
            j += 1;
        }
    }
    out
}

/// Calls inside `range` to functions in `fns` (functions defined in the same
/// file): (callee index, call-site offset). Token-level: any occurrence of a
/// function's name followed by `(`, excluding its own definition site.
pub fn calls_in(code: &str, fns: &[FnInfo], range: (usize, usize)) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (idx, f) in fns.iter().enumerate() {
        for occ in idents_in(code, &f.name, range) {
            if next_nonws(code, occ + f.name.len()) != Some(b'(') {
                continue;
            }
            // Skip the definition itself (`fn name(`).
            if prev_ident_is(code, occ, "fn") {
                continue;
            }
            out.push((idx, occ));
        }
    }
    out.sort_by_key(|(_, o)| *o);
    out
}

/// `for`/`while`/`loop` constructs within `range`: (keyword offset,
/// interior body range).
pub fn loops_in(code: &str, range: (usize, usize)) -> Vec<(usize, (usize, usize))> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for kw in ["for", "while", "loop"] {
        for occ in idents_in(code, kw, range) {
            // Scan the loop header — parens/brackets only — to the body brace.
            let mut depth = 0i32;
            let mut j = occ + kw.len();
            while j < range.1 {
                match bytes[j] {
                    b'(' | b'[' => depth += 1,
                    b')' | b']' => depth -= 1,
                    b'{' if depth == 0 => {
                        if let Some(close) = match_brace(code, j) {
                            out.push((occ, (j + 1, close - 1)));
                        }
                        break;
                    }
                    b';' if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
        }
    }
    out.sort_by_key(|(o, _)| *o);
    out
}

/// If the acquisition at `at` (whose call ends just past `call_end`) binds
/// a guard, the range over which the guard stays live. `let g = …;` and
/// `let Ok(g) = … else { … };` hold it from the end of the statement to the
/// end of the enclosing block; `if let` / `while let` hold it for their
/// body. `None` for statement-scoped temporaries.
pub fn guard_scope(
    code: &str,
    body: (usize, usize),
    at: usize,
    call_end: usize,
) -> Option<(usize, usize)> {
    let bytes = code.as_bytes();
    let ss = stmt_start(code, body, at);
    let conditional = [
        &["if", "let"][..],
        &["while", "let"],
        &["else", "if", "let"],
    ]
    .iter()
    .any(|lead| stmt_leads_with(code, ss, lead));
    if !conditional && !stmt_leads_with(code, ss, &["let"]) {
        return None;
    }
    // The initializer is the bare lock path (`=` then only `&`, `mut`,
    // `*`, path segments up to the acquisition). Indexing — the sharded
    // idiom `self.shards[slot].buf.lock()` — still names a single lock, so
    // `[`/`]` are allowed: such a guard is *held*, and skipping it here
    // would exempt every sharded lock from the guard rules.
    let eq = find_plain_eq(code, ss, at)?;
    if !code[eq + 1..at].bytes().all(|b| {
        b.is_ascii_whitespace()
            || is_ident_byte(b)
            || matches!(b, b'&' | b'*' | b'.' | b':' | b'[' | b']')
    }) {
        return None;
    }
    // …optionally chained through unwrap/expect/ok.
    let mut i = call_end;
    let after = loop {
        let p = nonws_from(code, i)?;
        if bytes[p] != b'.' {
            break p;
        }
        let ws = nonws_from(code, p + 1)?;
        let we = ident_end(bytes, ws);
        if !matches!(&code[ws..we], "unwrap" | "expect" | "ok") {
            return None;
        }
        let open = nonws_from(code, we)?;
        if bytes[open] != b'(' {
            return None;
        }
        i = match_brace(code, open)?;
    };
    if conditional {
        // The body block is where the pattern's binding lives.
        return match_brace(code, after)
            .filter(|_| bytes[after] == b'{')
            .map(|close| (after + 1, close - 1));
    }
    // A `let … else { … }` diverges in its block; the guard is bound after.
    let stmt_end = if stmt_leads_with(code, after, &["else"]) {
        let open = nonws_from(code, after + "else".len())?;
        nonws_from(code, match_brace(code, open)?)?
    } else {
        after
    };
    (bytes[stmt_end] == b';').then(|| (stmt_end + 1, enclosing_block_end(code, body, at)))
}

/// If the bytes after a lock identifier (ending at `after`) are
/// `.lock(…)`, `.try_lock(…)`, `.read(…)` or `.write(…)`, the offset just
/// past the call's closing `)`.
pub fn lock_call_end(code: &str, after: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let dot = nonws_from(code, after)?;
    if bytes[dot] != b'.' {
        return None;
    }
    let ms = nonws_from(code, dot + 1)?;
    if !is_ident_byte(bytes[ms]) {
        return None;
    }
    let me = ident_end(bytes, ms);
    if !matches!(&code[ms..me], "lock" | "try_lock" | "read" | "write") {
        return None;
    }
    let open = nonws_from(code, me)?;
    if bytes[open] != b'(' {
        return None;
    }
    match_brace(code, open)
}

/// Offset of the first non-whitespace byte at or after `i`.
pub fn nonws_from(code: &str, i: usize) -> Option<usize> {
    code.as_bytes()
        .iter()
        .enumerate()
        .skip(i)
        .find(|(_, b)| !b.is_ascii_whitespace())
        .map(|(p, _)| p)
}

/// The first non-whitespace byte at or after `i`, if any.
pub fn next_nonws(code: &str, i: usize) -> Option<u8> {
    nonws_from(code, i).map(|p| code.as_bytes()[p])
}

/// Offset of the last non-whitespace byte strictly before `i`.
pub fn prev_nonws_at(code: &str, i: usize) -> Option<usize> {
    code.as_bytes()[..i]
        .iter()
        .rposition(|b| !b.is_ascii_whitespace())
}

/// Start of the identifier run containing `i` (walking left).
pub fn ident_start(bytes: &[u8], mut i: usize) -> usize {
    while i > 0 && is_ident_byte(bytes[i - 1]) {
        i -= 1;
    }
    i
}

/// End of the identifier run starting at `i` (walking right).
pub fn ident_end(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && is_ident_byte(bytes[i]) {
        i += 1;
    }
    i
}

/// Whether the identifier ending just before `occ` (skipping whitespace) is
/// `word`.
pub fn prev_ident_is(code: &str, occ: usize, word: &str) -> bool {
    let bytes = code.as_bytes();
    let Some(p) = prev_nonws_at(code, occ) else {
        return false;
    };
    if !is_ident_byte(bytes[p]) {
        return false;
    }
    let s = ident_start(bytes, p);
    &code[s..=p] == word
}

/// `<recv>.name(` shape: the identifier at `occ` is preceded by `.` and
/// followed by `(`.
pub fn is_method_call(code: &str, occ: usize, len: usize) -> bool {
    prev_nonws_at(code, occ).map(|p| code.as_bytes()[p]) == Some(b'.')
        && next_nonws(code, occ + len) == Some(b'(')
}

/// Offset of the first byte of the statement containing `pos`: just past
/// the nearest `;`, `{` or `}` before it (clamped to `range`).
pub fn stmt_start(code: &str, range: (usize, usize), pos: usize) -> usize {
    let bytes = code.as_bytes();
    let mut i = pos;
    while i > range.0 {
        match bytes[i - 1] {
            b';' | b'{' | b'}' => return i,
            _ => i -= 1,
        }
    }
    range.0
}

/// Whether the statement starting at `ss` leads with exactly the given
/// identifier sequence.
pub fn stmt_leads_with(code: &str, ss: usize, words: &[&str]) -> bool {
    let bytes = code.as_bytes();
    let mut i = ss;
    for w in words {
        let Some(p) = nonws_from(code, i) else {
            return false;
        };
        if !is_ident_byte(bytes[p]) {
            return false;
        }
        let e = ident_end(bytes, p);
        if &code[p..e] != *w {
            return false;
        }
        i = e;
    }
    true
}

/// The first plain `=` (not `==`, `=>`, `<=`, …) between `from` and `to`.
pub fn find_plain_eq(code: &str, from: usize, to: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    (from..to).find(|&i| {
        bytes[i] == b'='
            && bytes.get(i + 1) != Some(&b'=')
            && bytes.get(i + 1) != Some(&b'>')
            && (i == 0
                || !matches!(
                    bytes[i - 1],
                    b'=' | b'<'
                        | b'>'
                        | b'!'
                        | b'+'
                        | b'-'
                        | b'*'
                        | b'/'
                        | b'%'
                        | b'&'
                        | b'|'
                        | b'^'
                ))
    })
}

/// End of the innermost `{…}` block (within `body`) containing `pos`.
pub fn enclosing_block_end(code: &str, body: (usize, usize), pos: usize) -> usize {
    let bytes = code.as_bytes();
    let mut stack = Vec::new();
    let mut i = body.0;
    while i < pos && i < bytes.len() {
        match bytes[i] {
            b'{' => stack.push(i),
            b'}' => {
                stack.pop();
            }
            _ => {}
        }
        i += 1;
    }
    match stack.last() {
        Some(&open) => match_brace(code, open).map(|e| e - 1).unwrap_or(body.1),
        None => body.1,
    }
}

// ---------------------------------------------------------------------------
// The call graph. A [`FileSet`] scans a list of files together — one file for
// the file-local rules, a node kind's whole implementation surface for the
// protocol rules, which must follow a handler arm into helpers defined in
// *other* crates (core handler logic called from runtime dispatch, consensus
// roles called from the coordinator) — and resolves call names across all of
// them. Resolution is deliberately over-approximate — the token scanner
// cannot see `use` paths — which is the right direction for every rule built
// on it: an over-wide closure can only make "the guard/timer/handler is
// present" easier to satisfy and flags nothing spurious.
// ---------------------------------------------------------------------------

/// A function's address within a [`FileSet`]: (file index, fn index).
pub type FnRef = (usize, usize);

/// Callee names never traversed when building a call closure: constructors
/// and conversions whose definitions live in std (or are type-specific
/// boilerplate), so following a same-named local `fn` would wire unrelated
/// code — startup-only constructor bodies — into every closure.
pub const SKIP_CALLEES: &[&str] = &["new", "with_capacity", "default", "clone", "from", "into"];

/// A set of source files scanned together.
pub struct FileSet {
    files: Vec<SourceFile>,
    fns: Vec<Vec<FnInfo>>,
}

impl FileSet {
    /// Read `rels` (workspace-relative paths) under `root`.
    pub fn load(root: &Path, rels: &[&str]) -> Result<FileSet, String> {
        let mut files = Vec::new();
        for rel in rels {
            files.push(SourceFile::read(&root.join(rel), (*rel).to_string())?);
        }
        Ok(FileSet::from_files(files))
    }

    /// Build from already-scanned files.
    pub fn from_files(files: Vec<SourceFile>) -> FileSet {
        let fns = files.iter().map(|f| discover_fns(&f.code)).collect();
        FileSet { files, fns }
    }

    pub fn files(&self) -> &[SourceFile] {
        &self.files
    }

    pub fn file(&self, i: usize) -> &SourceFile {
        &self.files[i]
    }

    pub fn fn_info(&self, r: FnRef) -> &FnInfo {
        &self.fns[r.0][r.1]
    }

    /// Every definition of `name` across the whole set. Closures resolve by
    /// union, not by shadowing: a wrapper type calling
    /// `self.inner.begin(...)` must reach the inner `begin` in another crate
    /// even when the wrapper defines its own `begin`.
    pub fn named(&self, name: &str) -> Vec<FnRef> {
        let mut out = Vec::new();
        for (i, fns) in self.fns.iter().enumerate() {
            for (j, f) in fns.iter().enumerate() {
                if f.name == name {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// The definitions of `name` in file `i` outside `#[cfg(test)]` items:
    /// the seeds of a table entry's closure. Empty means the table is stale.
    pub fn entries(&self, i: usize, name: &str) -> Vec<FnRef> {
        let live = |r: &FnRef| r.0 == i && !self.files[i].in_test(self.fn_info(*r).body.0);
        self.named(name).into_iter().filter(live).collect()
    }

    /// Call-site names within `range` of file `i`: every `name(` where the
    /// name is a plausible function (lowercase/underscore start — fn items
    /// here are snake_case, uppercase names are types and tuple/enum
    /// constructors), excluding definitions (`fn name(`) and macros
    /// (`name!(`). Returns (offset, name) in source order.
    pub fn call_names(&self, i: usize, range: (usize, usize)) -> Vec<(usize, String)> {
        let code = &self.files[i].code;
        let bytes = code.as_bytes();
        let mut out = Vec::new();
        let mut j = range.0;
        let hi = range.1.min(bytes.len());
        while j < hi {
            if !is_ident_byte(bytes[j]) || (j > 0 && is_ident_byte(bytes[j - 1])) {
                j += 1;
                continue;
            }
            let end = ident_end(bytes, j);
            let first = bytes[j];
            let named = first.is_ascii_lowercase() || first == b'_';
            if named
                && end < bytes.len()
                && bytes[end] != b'!'
                && next_nonws(code, end) == Some(b'(')
                && !prev_ident_is(code, j, "fn")
            {
                out.push((j, code[j..end].to_string()));
            }
            j = end;
        }
        out
    }

    /// The functions the code in `range` of file `i` may call: every
    /// definition of every call-site name, [`SKIP_CALLEES`] dropped.
    pub fn callees(&self, i: usize, range: (usize, usize)) -> Vec<FnRef> {
        self.call_names(i, range)
            .iter()
            .filter(|(_, name)| !SKIP_CALLEES.contains(&name.as_str()))
            .flat_map(|(_, name)| self.named(name))
            .collect()
    }

    /// Transitive closure of functions reachable from `seeds`, following
    /// [`Self::callees`] across files. Returns refs in discovery order,
    /// seeds first.
    pub fn closure(&self, seeds: &[FnRef]) -> Vec<FnRef> {
        let mut seen: BTreeSet<FnRef> = seeds.iter().copied().collect();
        let mut order: Vec<FnRef> = seeds.to_vec();
        let mut queue: Vec<FnRef> = seeds.to_vec();
        while let Some(r) = queue.pop() {
            for callee in self.callees(r.0, self.fn_info(r).body) {
                if seen.insert(callee) {
                    order.push(callee);
                    queue.push(callee);
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanking_preserves_length_and_lines() {
        let src = "let a = \"hi\\n//not a comment\"; // real comment\nlet b = 'x'; /* block\nstill */ let c = 1;\n";
        let (out, comments) = blank_noncode(src);
        assert_eq!(out.len(), src.len());
        // The `//` inside the string literal is not a comment.
        assert_eq!(comments.len(), 1);
        assert_eq!(&src[comments[0].0..comments[0].1], "// real comment");
        assert_eq!(
            out.matches('\n').count(),
            src.matches('\n').count(),
            "newlines must survive blanking"
        );
        assert!(!out.contains("not a comment"));
        assert!(!out.contains("real comment"));
        assert!(!out.contains("block"));
        assert!(out.contains("let c = 1;"));
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let src = "let r = r#\"quote \" inside\"#; fn f<'a>(x: &'a str) -> &'a str { x }";
        let (out, _) = blank_noncode(src);
        assert!(!out.contains("inside"));
        assert!(out.contains("fn f<'a>"), "lifetimes survive: {out}");
    }

    #[test]
    fn ident_occurrences_are_word_bounded() {
        let code = "x.unwrap(); y.unwrap_or(3); let unwrap = 1;";
        assert_eq!(ident_occurrences(code, "unwrap").len(), 2);
    }

    #[test]
    fn index_sites_skip_macros_attrs_and_types() {
        let code = "#[derive(Debug)] let v = vec![1]; let a: [u8; 4] = x[i]; b[0] = c(1)[2];";
        let hits = index_sites(code);
        // x[i], b[0], c(1)[2] — not #[, vec![, [u8; 4].
        assert_eq!(hits.len(), 3, "{hits:?}");
        // A slice type behind a lifetime is not an index expression.
        assert!(index_sites("fn f<'a>(buf: &'a [u8]) {}").is_empty());
    }

    #[test]
    fn cfg_test_ranges_cover_the_module() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\nfn tail() {}";
        let f = SourceFile::parse(src.to_string(), "x.rs".into());
        let unwraps = f.idents("unwrap");
        assert_eq!(unwraps.len(), 1);
        assert!(f.in_test(unwraps[0]));
        let tail = f.idents("tail");
        assert!(!f.in_test(tail[0]));
    }

    fn set(sources: &[(&str, &str)]) -> FileSet {
        FileSet::from_files(
            sources
                .iter()
                .map(|(rel, raw)| SourceFile::parse((*raw).to_string(), (*rel).to_string()))
                .collect(),
        )
    }

    fn names_of(fs: &FileSet, refs: &[FnRef]) -> Vec<String> {
        refs.iter().map(|&r| fs.fn_info(r).name.clone()).collect()
    }

    #[test]
    fn closure_crosses_file_boundaries() {
        let fs = set(&[
            ("a.rs", "fn entry(x: u32) { helper(x); }"),
            ("b.rs", "fn helper(x: u32) { leaf(); }\nfn leaf() {}"),
        ]);
        let refs = fs.closure(&fs.entries(0, "entry"));
        let mut names = names_of(&fs, &refs);
        names.sort();
        assert_eq!(names, vec!["entry", "helper", "leaf"]);
    }

    #[test]
    fn closure_follows_every_same_named_definition() {
        // A wrapper delegating to `self.inner.begin(...)` must pull the
        // inner crate's `begin` into the closure even though the wrapper
        // defines its own `begin` — closures resolve by union, not shadow.
        let fs = set(&[
            ("wrapper.rs", "fn begin(&mut self) { self.inner.begin(); }"),
            ("inner.rs", "fn begin(&mut self) { leaf(); }\nfn leaf() {}"),
        ]);
        let refs = fs.closure(&fs.entries(0, "begin"));
        let mut names = names_of(&fs, &refs);
        names.sort();
        assert_eq!(names, vec!["begin", "begin", "leaf"]);
    }

    #[test]
    fn call_names_skip_macros_types_and_definitions() {
        let fs = set(&[(
            "a.rs",
            "fn entry() { Vec::new(); vec![1]; println!(\"{}\", 0); Some(3); SiteId(0); helper(); }",
        )]);
        let body = fs.fn_info((0, 0)).body;
        let names: Vec<String> = fs.call_names(0, body).into_iter().map(|(_, n)| n).collect();
        // `new` is reported (the closure skip-list drops it), macros and
        // uppercase constructors are not, and the `fn entry(` definition
        // site itself never counts as a call.
        assert_eq!(names, vec!["new", "helper"]);
    }

    #[test]
    fn closure_respects_the_skip_list() {
        let fs = set(&[
            ("a.rs", "fn entry() { Thing::new(); }"),
            ("b.rs", "fn new() { trapdoor(); }\nfn trapdoor() {}"),
        ]);
        let refs = fs.closure(&fs.entries(0, "entry"));
        assert_eq!(names_of(&fs, &refs), vec!["entry"]);
    }

    #[test]
    fn entries_are_the_live_definitions_in_the_entry_file() {
        let fs = set(&[
            (
                "a.rs",
                "fn entry() {}\n#[cfg(test)]\nmod tests { fn entry() {} }",
            ),
            ("b.rs", "fn entry() {}"),
        ]);
        assert_eq!(fs.entries(0, "entry"), vec![(0, 0)]);
        // A name the entry file does not define marks a stale table.
        assert!(fs.entries(0, "gone").is_empty());
    }
}
