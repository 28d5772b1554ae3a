//! Tokenizer for the SQL subset.

use crate::SqlError;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword (stored lowercased; originals are
    /// case-insensitive in SQL).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// Punctuation and operators.
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Plus,
    Minus,
    Slash,
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
    Ne,
    Semicolon,
}

/// A token with its source offset (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// Byte offset of the token start.
    pub offset: usize,
}

/// Tokenize the input.
pub fn tokenize(input: &str) -> Result<Vec<Spanned>, SqlError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                out.push(Spanned {
                    token: Token::LParen,
                    offset: start,
                });
                i += 1;
            }
            ')' => {
                out.push(Spanned {
                    token: Token::RParen,
                    offset: start,
                });
                i += 1;
            }
            ',' => {
                out.push(Spanned {
                    token: Token::Comma,
                    offset: start,
                });
                i += 1;
            }
            '.' => {
                out.push(Spanned {
                    token: Token::Dot,
                    offset: start,
                });
                i += 1;
            }
            '*' => {
                out.push(Spanned {
                    token: Token::Star,
                    offset: start,
                });
                i += 1;
            }
            '+' => {
                out.push(Spanned {
                    token: Token::Plus,
                    offset: start,
                });
                i += 1;
            }
            '-' => {
                out.push(Spanned {
                    token: Token::Minus,
                    offset: start,
                });
                i += 1;
            }
            '/' => {
                out.push(Spanned {
                    token: Token::Slash,
                    offset: start,
                });
                i += 1;
            }
            ';' => {
                out.push(Spanned {
                    token: Token::Semicolon,
                    offset: start,
                });
                i += 1;
            }
            '=' => {
                out.push(Spanned {
                    token: Token::Eq,
                    offset: start,
                });
                i += 1;
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Spanned {
                        token: Token::Le,
                        offset: start,
                    });
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    out.push(Spanned {
                        token: Token::Ne,
                        offset: start,
                    });
                    i += 2;
                } else {
                    out.push(Spanned {
                        token: Token::Lt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Spanned {
                        token: Token::Ge,
                        offset: start,
                    });
                    i += 2;
                } else {
                    out.push(Spanned {
                        token: Token::Gt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '!' if i + 1 < bytes.len() && bytes[i + 1] == b'=' => {
                out.push(Spanned {
                    token: Token::Ne,
                    offset: start,
                });
                i += 2;
            }
            '\'' => {
                // Copy the text between quote bytes as `str` slices: a `'`
                // byte never occurs inside a multi-byte UTF-8 character, so
                // every slice boundary is a char boundary.
                let mut s = String::new();
                i += 1;
                loop {
                    let Some(len) = input[i..].find('\'') else {
                        return Err(SqlError::new("unterminated string literal", start));
                    };
                    s.push_str(&input[i..i + len]);
                    i += len + 1;
                    if bytes.get(i) != Some(&b'\'') {
                        break;
                    }
                    // `''` is an escaped quote.
                    s.push('\'');
                    i += 1;
                }
                out.push(Spanned {
                    token: Token::Str(s),
                    offset: start,
                });
            }
            '0'..='9' => {
                let mut end = i;
                let mut is_float = false;
                while end < bytes.len()
                    && (bytes[end].is_ascii_digit()
                        || (bytes[end] == b'.'
                            && end + 1 < bytes.len()
                            && bytes[end + 1].is_ascii_digit()))
                {
                    if bytes[end] == b'.' {
                        is_float = true;
                    }
                    end += 1;
                }
                let text = &input[i..end];
                let token = if is_float {
                    Token::Float(
                        text.parse()
                            .map_err(|_| SqlError::new(format!("invalid number {text}"), start))?,
                    )
                } else {
                    Token::Int(
                        text.parse()
                            .map_err(|_| SqlError::new(format!("invalid number {text}"), start))?,
                    )
                };
                out.push(Spanned {
                    token,
                    offset: start,
                });
                i = end;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut end = i;
                while end < bytes.len()
                    && ((bytes[end] as char).is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                out.push(Spanned {
                    token: Token::Ident(input[i..end].to_ascii_lowercase()),
                    offset: start,
                });
                i = end;
            }
            _ => {
                // `i` sits on a char boundary: every arm above consumes
                // whole ASCII bytes or whole string literals.
                let other = input[i..].chars().next().unwrap_or(c);
                return Err(SqlError::new(
                    format!("unexpected character {other:?}"),
                    start,
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Token> {
        tokenize(s).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("SELECT a, b FROM t WHERE x <= 10"),
            vec![
                Token::Ident("select".into()),
                Token::Ident("a".into()),
                Token::Comma,
                Token::Ident("b".into()),
                Token::Ident("from".into()),
                Token::Ident("t".into()),
                Token::Ident("where".into()),
                Token::Ident("x".into()),
                Token::Le,
                Token::Int(10),
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            toks("'it''s' '%steel%' 'café' 'naïve''s'"),
            vec![
                Token::Str("it's".into()),
                Token::Str("%steel%".into()),
                Token::Str("café".into()),
                Token::Str("naïve's".into()),
            ]
        );
        assert!(tokenize("'unterminated").is_err());
        assert_eq!(
            tokenize("é").unwrap_err().message,
            "unexpected character 'é'"
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42 3.5"), vec![Token::Int(42), Token::Float(3.5)]);
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            toks("< <= > >= = <> !="),
            vec![
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::Eq,
                Token::Ne,
                Token::Ne
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a -- comment here\n b"),
            vec![Token::Ident("a".into()), Token::Ident("b".into())]
        );
    }

    #[test]
    fn qualified_names() {
        assert_eq!(
            toks("dbo.lineitem"),
            vec![
                Token::Ident("dbo".into()),
                Token::Dot,
                Token::Ident("lineitem".into())
            ]
        );
    }
}
