//! A minimal, hand-rolled line lexer for Rust source.
//!
//! The analysis rules only need three views of a file, none of which require
//! a real parse tree:
//!
//! 1. **code**: each line with comments and string-literal *contents* blanked
//!    out to spaces (the delimiting quotes stay, so columns line up with the
//!    original source);
//! 2. **comment**: the comment text that appears on each line (line comments,
//!    doc comments, and every line of a block comment);
//! 3. **strings**: every string literal in source order, with the line and
//!    column where it starts.
//!
//! The lexer understands line comments, nested block comments, plain and raw
//! (byte) strings, character literals, and disambiguates lifetimes (`'a`)
//! from char literals (`'a'`). It deliberately does not build tokens — the
//! rules work on substring matches over the blanked `code` text, which cannot
//! be fooled by `unsafe` appearing inside a string or a doc comment.

/// One source line, split into its code and comment parts.
#[derive(Debug, Default, Clone)]
pub struct LineInfo {
    /// The line with comments and string contents replaced by spaces.
    /// Same char length as the original line, so columns are preserved.
    pub code: String,
    /// Comment text present on this line (empty if none).
    pub comment: String,
}

/// A string literal and where it starts.
#[derive(Debug, Clone)]
pub struct StrLit {
    /// 1-based line of the opening quote.
    pub line: usize,
    /// 0-based char column of the opening quote (or prefix) on that line.
    pub col: usize,
    /// The literal's contents (escapes left as written, not decoded).
    pub value: String,
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Per-line code/comment split, in order.
    pub lines: Vec<LineInfo>,
    /// Every string literal, in source order.
    pub strings: Vec<StrLit>,
}

enum State {
    Normal,
    /// Inside a block comment; the payload is the nesting depth.
    Block(u32),
    /// Inside a plain (or byte) string literal.
    Str,
    /// Inside a raw string literal closed by `"` followed by N hashes.
    RawStr(usize),
}

/// True for a char that can appear in an identifier.
pub fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src` into per-line code/comment views plus a string-literal table.
pub fn lex(src: &str) -> Lexed {
    let mut out = Lexed::default();
    let mut state = State::Normal;
    // The literal currently being accumulated (spans lines for multi-line
    // strings). `(line, col)` is where it opened.
    let mut cur_lit: Option<(usize, usize, String)> = None;

    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let chars: Vec<char> = raw.chars().collect();
        let mut code: Vec<char> = vec![' '; chars.len()];
        let mut comment = String::new();
        let mut i = 0;

        while i < chars.len() {
            match state {
                State::Block(ref mut depth) => {
                    if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        comment.push_str("*/");
                        i += 2;
                        *depth -= 1;
                        if *depth == 0 {
                            state = State::Normal;
                        }
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        comment.push_str("/*");
                        i += 2;
                        *depth += 1;
                    } else {
                        comment.push(chars[i]);
                        i += 1;
                    }
                }
                State::Str => {
                    if chars[i] == '\\' {
                        if let Some((_, _, lit)) = cur_lit.as_mut() {
                            lit.push('\\');
                            if let Some(&next) = chars.get(i + 1) {
                                lit.push(next);
                            }
                        }
                        i += 2; // skips the escaped char; harmless past EOL
                    } else if chars[i] == '"' {
                        code[i] = '"';
                        if let Some((l, c, v)) = cur_lit.take() {
                            out.strings.push(StrLit {
                                line: l,
                                col: c,
                                value: v,
                            });
                        }
                        state = State::Normal;
                        i += 1;
                    } else {
                        if let Some((_, _, lit)) = cur_lit.as_mut() {
                            lit.push(chars[i]);
                        }
                        i += 1;
                    }
                }
                State::RawStr(hashes) => {
                    let closes =
                        chars[i] == '"' && (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'));
                    if closes {
                        code[i] = '"';
                        if let Some((l, c, v)) = cur_lit.take() {
                            out.strings.push(StrLit {
                                line: l,
                                col: c,
                                value: v,
                            });
                        }
                        state = State::Normal;
                        i += 1 + hashes;
                    } else {
                        if let Some((_, _, lit)) = cur_lit.as_mut() {
                            lit.push(chars[i]);
                        }
                        i += 1;
                    }
                }
                State::Normal => {
                    let c = chars[i];
                    let next = chars.get(i + 1).copied();
                    let prev_ident = i > 0 && is_ident(chars[i - 1]);
                    if c == '/' && next == Some('/') {
                        // Line (or doc) comment: the rest of the line.
                        comment.extend(chars[i..].iter());
                        break;
                    }
                    if c == '/' && next == Some('*') {
                        comment.push_str("/*");
                        state = State::Block(1);
                        i += 2;
                        continue;
                    }
                    if c == '"' {
                        code[i] = '"';
                        cur_lit = Some((lineno, i, String::new()));
                        state = State::Str;
                        i += 1;
                        continue;
                    }
                    // Raw strings: r"..." / r#"..."# / br#"..."#; and byte
                    // strings b"...". A preceding identifier char means this
                    // is just the tail of a name (e.g. `var` ends in `r`).
                    if (c == 'r' || c == 'b') && !prev_ident {
                        let after_prefix = if c == 'b' && next == Some('r') {
                            i + 2
                        } else if c == 'b' && next == Some('"') {
                            // byte string b"..."
                            code[i] = 'b';
                            code[i + 1] = '"';
                            cur_lit = Some((lineno, i, String::new()));
                            state = State::Str;
                            i += 2;
                            continue;
                        } else if c == 'r' {
                            i + 1
                        } else {
                            code[i] = c;
                            i += 1;
                            continue;
                        };
                        let mut hashes = 0;
                        while chars.get(after_prefix + hashes) == Some(&'#') {
                            hashes += 1;
                        }
                        if chars.get(after_prefix + hashes) == Some(&'"') {
                            code[i] = c;
                            code[after_prefix + hashes] = '"';
                            cur_lit = Some((lineno, i, String::new()));
                            state = State::RawStr(hashes);
                            i = after_prefix + hashes + 1;
                            continue;
                        }
                        // Not a raw string (raw identifier `r#ident`, or a
                        // bare `r`/`b` token): plain code.
                        code[i] = c;
                        i += 1;
                        continue;
                    }
                    if c == '\'' {
                        if next == Some('\\') {
                            // Escaped char literal: scan to the closing quote.
                            let mut j = i + 3; // skip ' \ and the escaped char
                            while j < chars.len() && chars[j] != '\'' {
                                j += 1;
                            }
                            code[i] = '\'';
                            if j < chars.len() {
                                code[j] = '\'';
                            }
                            i = j + 1;
                            continue;
                        }
                        if chars.get(i + 2) == Some(&'\'') && next != Some('\'') {
                            // One-char literal like 'x'.
                            code[i] = '\'';
                            code[i + 2] = '\'';
                            i += 3;
                            continue;
                        }
                        // Lifetime (or label): keep the tick, move on.
                        code[i] = '\'';
                        i += 1;
                        continue;
                    }
                    code[i] = c;
                    i += 1;
                }
            }
        }

        // A string still open at EOL spans lines; record the newline.
        if let Some((_, _, lit)) = cur_lit.as_mut() {
            lit.push('\n');
        }
        out.lines.push(LineInfo {
            code: code.into_iter().collect(),
            comment,
        });
    }
    out
}

/// Mark the lines belonging to `#[cfg(test)]` items (in this codebase,
/// always `mod tests { ... }` blocks). Returns one flag per line.
///
/// The scan finds the first `{` after the attribute and brace-counts over the
/// blanked code text (string/comment braces are already erased). If a `;`
/// shows up before any `{`, the attribute guarded a non-block item and only
/// the lines up to the `;` are marked.
pub fn test_regions(lines: &[LineInfo]) -> Vec<bool> {
    let mut flags = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].code.contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let mut depth: usize = 0;
        let mut entered = false;
        let mut j = i;
        'scan: while j < lines.len() {
            for ch in lines[j].code.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        entered = true;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if entered && depth == 0 {
                            break 'scan;
                        }
                    }
                    ';' if !entered => break 'scan,
                    _ => {}
                }
            }
            j += 1;
        }
        let end = j.min(lines.len() - 1);
        for flag in &mut flags[i..=end] {
            *flag = true;
        }
        i = end + 1;
    }
    flags
}

/// Find the first string literal at or after `(line, col)` (1-based line).
pub fn first_string_after(lexed: &Lexed, line: usize, col: usize) -> Option<&StrLit> {
    lexed
        .strings
        .iter()
        .find(|s| s.line > line || (s.line == line && s.col >= col))
}

/// True if `needle` occurs in `hay` bounded by non-identifier chars.
pub fn has_word(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || !hay[..at].chars().next_back().map(is_ident).unwrap_or(false);
        let after = at + needle.len();
        let after_ok =
            after >= hay.len() || !hay[after..].chars().next().map(is_ident).unwrap_or(false);
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let lexed = lex("let x = \"unsafe\"; // unsafe trailing\nunsafe { y() }\n");
        assert!(!lexed.lines[0].code.contains("unsafe"));
        assert!(lexed.lines[0].comment.contains("unsafe trailing"));
        assert!(lexed.lines[1].code.contains("unsafe"));
        assert_eq!(lexed.strings.len(), 1);
        assert_eq!(lexed.strings[0].value, "unsafe");
    }

    #[test]
    fn raw_strings_and_char_literals() {
        let lexed =
            lex("let r = r#\"a \"quoted\" b\"#;\nlet c = '\\n';\nfn f<'a>(x: &'a str) {}\n");
        assert_eq!(lexed.strings[0].value, "a \"quoted\" b");
        assert!(!lexed.lines[1].code.contains('n') || lexed.lines[1].code.contains("let c"));
        assert!(lexed.lines[2].code.contains("fn f<'a>"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let lexed = lex("/* outer /* inner */ still */ code()\n/* open\nmid\n*/ tail()\n");
        assert!(lexed.lines[0].code.contains("code()"));
        assert!(!lexed.lines[0].code.contains("inner"));
        assert!(lexed.lines[2].comment.contains("mid"));
        assert!(lexed.lines[3].code.contains("tail()"));
    }

    #[test]
    fn cfg_test_regions_cover_the_mod() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let lexed = lex(src);
        let flags = test_regions(&lexed.lines);
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn multiline_strings_keep_state() {
        let lexed = lex("let s = \"line one\nline two\";\nlet t = 1;\n");
        assert_eq!(lexed.strings[0].value, "line one\nline two");
        assert!(lexed.lines[2].code.contains("let t"));
    }
}
