//! Lexer-level source scanning: split a Rust source file into per-line
//! *code* (string contents blanked, comments removed) and per-line
//! *comment text* (for justification-comment adjacency checks).
//!
//! Deliberately not `syn`: the scanner must stay offline-safe, fast
//! over the whole workspace, and robust to code that does not parse
//! (a half-edited file should still lint). It understands exactly the
//! token forms that can hide false positives from substring rules:
//! line and (nested) block comments, string literals, raw strings with
//! `#` fences, byte strings, char/byte literals, and lifetimes.

/// A scanned source file, line-indexed (0-based internally; diagnostics
/// report 1-based).
pub struct Scanned {
    /// Per line: code with comments removed and string/char contents
    /// blanked (delimiters preserved, so `.expect("` stays visible).
    pub code: Vec<String>,
    /// Per line: concatenated text of every comment on that line.
    pub comments: Vec<String>,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Code,
    LineComment,
    /// Nesting depth.
    BlockComment(u32),
    /// `#` fence count of the raw string (0 for plain `"…"`).
    Str {
        raw_fences: Option<u32>,
    },
    CharLit,
}

/// Scans `text` into per-line code and comment channels.
pub fn scan(text: &str) -> Scanned {
    let mut code = Vec::new();
    let mut comments = Vec::new();
    let mut mode = Mode::Code;

    for line in text.lines() {
        let bytes: Vec<char> = line.chars().collect();
        let mut code_line = String::new();
        let mut comment_line = String::new();
        let mut i = 0usize;

        // A line comment never spans lines.
        if mode == Mode::LineComment {
            mode = Mode::Code;
        }

        while i < bytes.len() {
            let c = bytes[i];
            let next = bytes.get(i + 1).copied();
            match mode {
                Mode::Code => {
                    if c == '/' && next == Some('/') {
                        mode = Mode::LineComment;
                        comment_line.push_str(&line[char_offset(line, i)..]);
                        break;
                    } else if c == '/' && next == Some('*') {
                        mode = Mode::BlockComment(1);
                        i += 2;
                    } else if c == '"' {
                        code_line.push('"');
                        mode = Mode::Str { raw_fences: None };
                        i += 1;
                    } else if c == 'r' || c == 'b' {
                        // Possible raw/byte string or byte char: r", r#",
                        // br", b", b'.
                        let (fences, consumed) = raw_string_open(&bytes[i..]);
                        if let Some(f) = fences {
                            code_line.push('"');
                            mode = Mode::Str {
                                raw_fences: Some(f),
                            };
                            i += consumed;
                        } else if c == 'b' && next == Some('\'') {
                            code_line.push('\'');
                            mode = Mode::CharLit;
                            i += 2;
                        } else {
                            code_line.push(c);
                            i += 1;
                        }
                    } else if c == '\'' {
                        // Lifetime (`'a`, `'static`) vs char literal.
                        let is_lifetime = matches!(next, Some(n) if n.is_alphabetic() || n == '_')
                            && bytes.get(i + 2).copied() != Some('\'');
                        if is_lifetime {
                            code_line.push('\'');
                            i += 1;
                        } else {
                            code_line.push('\'');
                            mode = Mode::CharLit;
                            i += 1;
                        }
                    } else {
                        code_line.push(c);
                        i += 1;
                    }
                }
                Mode::LineComment => unreachable!("handled at line start / break"),
                Mode::BlockComment(depth) => {
                    if c == '*' && next == Some('/') {
                        mode = if depth == 1 {
                            Mode::Code
                        } else {
                            Mode::BlockComment(depth - 1)
                        };
                        comment_line.push(' ');
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        mode = Mode::BlockComment(depth + 1);
                        i += 2;
                    } else {
                        comment_line.push(c);
                        i += 1;
                    }
                }
                Mode::Str { raw_fences: None } => {
                    if c == '\\' {
                        i += 2; // escape: skip escaped char (incl. \")
                    } else if c == '"' {
                        code_line.push('"');
                        mode = Mode::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                Mode::Str {
                    raw_fences: Some(f),
                } => {
                    if c == '"' && closes_raw(&bytes[i + 1..], f) {
                        code_line.push('"');
                        mode = Mode::Code;
                        i += 1 + f as usize;
                    } else {
                        i += 1;
                    }
                }
                Mode::CharLit => {
                    if c == '\\' {
                        i += 2;
                    } else if c == '\'' {
                        code_line.push('\'');
                        mode = Mode::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
            }
        }

        code.push(code_line);
        comments.push(comment_line);
    }

    Scanned { code, comments }
}

/// Byte offset of the `idx`-th char of `line` (lines are short; linear
/// rescans are fine at this scale).
fn char_offset(line: &str, idx: usize) -> usize {
    line.char_indices()
        .nth(idx)
        .map_or(line.len(), |(off, _)| off)
}

/// Recognizes `r"`, `r#…#"`, `br"`, `b"` openings at the cursor.
/// Returns (fence count, chars consumed) when a string opens here.
fn raw_string_open(rest: &[char]) -> (Option<u32>, usize) {
    let mut j = 0usize;
    if rest[0] == 'b' {
        j = 1;
    }
    if rest.get(j) == Some(&'r') {
        let mut fences = 0u32;
        let mut k = j + 1;
        while rest.get(k) == Some(&'#') {
            fences += 1;
            k += 1;
        }
        if rest.get(k) == Some(&'"') {
            return (Some(fences), k + 1);
        }
        return (None, 0);
    }
    // Plain byte string b"…" (no raw fence).
    if j == 1 && rest.get(1) == Some(&'"') {
        return (Some(0), 2);
    }
    (None, 0)
}

/// True when the chars after a `"` close a raw string with `fences` #s.
fn closes_raw(after: &[char], fences: u32) -> bool {
    (0..fences as usize).all(|k| after.get(k) == Some(&'#'))
}

/// True when `word` occurs in `hay` as a whole identifier, not inside
/// a longer one (`sleep` is not in `sleeper`, `f64` not in `1.0f64`).
pub fn has_word(hay: &str, word: &str) -> bool {
    hay.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .any(|w| w == word)
}

#[cfg(test)]
mod tests {
    use super::{has_word, scan};

    #[test]
    fn strips_comments_and_blanks_strings() {
        let s = scan(
            "let x = \"unsafe .unwrap()\"; // ordering: fine\nlet y = 2; /* f64 */ let z = 3;\n",
        );
        assert_eq!(s.code[0], "let x = \"\"; ");
        assert!(s.comments[0].contains("ordering: fine"));
        assert_eq!(s.code[1], "let y = 2;  let z = 3;");
        assert!(!s.code[1].contains("f64"));
    }

    #[test]
    fn raw_strings_and_chars() {
        let s = scan("let a = r#\"has \" quote f64\"#; let b = '\\''; let c = b'x';");
        assert!(!s.code[0].contains("f64"));
        assert!(!s.code[0].contains("quote"));
        assert!(s.code[0].contains("let b ="));
        assert!(s.code[0].contains("let c ="));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let s = scan("fn f<'a>(x: &'a str) -> &'static str { x } // f64");
        assert!(s.code[0].contains("'static str { x }"));
        assert!(s.comments[0].contains("f64"));
    }

    #[test]
    fn multiline_block_comment_nests() {
        let s = scan("a /* one /* two */ still */ b\nc");
        assert_eq!(s.code[0].replace(' ', ""), "ab");
        assert_eq!(s.code[1], "c");
    }

    #[test]
    fn word_boundaries() {
        assert!(has_word("as f64)", "f64"));
        assert!(!has_word("my_f64x", "f64"));
        assert!(!has_word("1.0f64", "f64"));
        assert!(!has_word("buff64", "f64"));
    }
}
