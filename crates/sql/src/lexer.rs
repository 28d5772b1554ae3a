//! Tokenizer for the SQL subset.

use crate::SqlError;
use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// A reserved word.
    Kw(Kw),
    /// Any other identifier (lowercased: SQL names are case-insensitive).
    Ident(Name),
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

/// The reserved words: they end an expression, so none is ever taken as a
/// table, column or alias name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kw {
    Select,
    From,
    Where,
    Group,
    By,
    And,
    Or,
    Not,
    Like,
    Between,
    Is,
    Null,
    As,
    Create,
    View,
    With,
    Schemabinding,
    Sum,
    Count,
    CountBig,
    Avg,
    Date,
    Order,
    Having,
}

/// Every keyword with its lowercase text, in declaration order.
const KEYWORDS: [(Kw, &str); 24] = [
    (Kw::Select, "select"),
    (Kw::From, "from"),
    (Kw::Where, "where"),
    (Kw::Group, "group"),
    (Kw::By, "by"),
    (Kw::And, "and"),
    (Kw::Or, "or"),
    (Kw::Not, "not"),
    (Kw::Like, "like"),
    (Kw::Between, "between"),
    (Kw::Is, "is"),
    (Kw::Null, "null"),
    (Kw::As, "as"),
    (Kw::Create, "create"),
    (Kw::View, "view"),
    (Kw::With, "with"),
    (Kw::Schemabinding, "schemabinding"),
    (Kw::Sum, "sum"),
    (Kw::Count, "count"),
    (Kw::CountBig, "count_big"),
    (Kw::Avg, "avg"),
    (Kw::Date, "date"),
    (Kw::Order, "order"),
    (Kw::Having, "having"),
];

/// `KEYWORDS`' texts, each packed by [`pack`].
const PACKED: [u128; 24] = {
    let mut packed = [0; 24];
    let mut i = 0;
    while i < packed.len() {
        packed[i] = pack(KEYWORDS[i].1.as_bytes());
        i += 1;
    }
    packed
};

/// A word of at most 16 bytes, lowercased and packed little-endian into
/// one integer. Identifier bytes are never 0, so two such words pack
/// equal exactly when they are equal ignoring ASCII case.
const fn pack(word: &[u8]) -> u128 {
    let mut packed = 0;
    let mut i = 0;
    while i < word.len() {
        packed |= (word[i].to_ascii_lowercase() as u128) << (8 * i);
        i += 1;
    }
    packed
}

impl Kw {
    /// The keyword an identifier spells, in any case.
    fn of(word: &[u8]) -> Option<Kw> {
        if word.len() > 16 {
            return None;
        }
        let packed = pack(word);
        PACKED
            .iter()
            .position(|&p| p == packed)
            .map(|i| KEYWORDS[i].0)
    }

    /// The keyword's lowercase text.
    pub(crate) fn text(self) -> &'static str {
        KEYWORDS[self as usize].1
    }
}

/// Bytes a [`Name`] holds without a heap allocation.
const INLINE: usize = 23;

/// A lowercased SQL name. One of at most 23 bytes is stored in the value
/// itself, so a name moves from token to AST to binder without
/// allocating; a longer one is boxed.
#[derive(Clone, PartialEq, Eq)]
pub struct Name(Repr);

/// Which form a name takes is fixed by its text, so the derived equality
/// compares names.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    /// The text, padded with 0 bytes; it holds no 0 byte itself.
    Inline([u8; INLINE]),
    Heap(Box<str>),
}

impl Name {
    /// `text`, ASCII-lowercased.
    pub fn new(text: &str) -> Name {
        let bytes = text.as_bytes();
        if bytes.len() > INLINE || bytes.contains(&0) {
            return Name(Repr::Heap(text.to_ascii_lowercase().into_boxed_str()));
        }
        let mut inline = [0; INLINE];
        for (to, from) in inline.iter_mut().zip(bytes) {
            *to = from.to_ascii_lowercase();
        }
        Name(Repr::Inline(inline))
    }

    /// The name's text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline(inline) => {
                let len = inline.iter().position(|&b| b == 0).unwrap_or(INLINE);
                // Lowercasing changes only ASCII bytes, so a whole `str` went in.
                std::str::from_utf8(&inline[..len]).expect("an inline name is a whole str")
            }
            Repr::Heap(text) => text,
        }
    }
}

impl From<&str> for Name {
    fn from(text: &str) -> Name {
        Name::new(text)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
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
    let mut out = Vec::with_capacity(input.len() / CAPACITY_BYTES + 1);
    let mut i = 0;
    while i < bytes.len() {
        let next = bytes.get(i + 1).copied();
        let (token, len) = match bytes[i] {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
                continue;
            }
            b'-' if next == Some(b'-') => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            b'(' => (Token::LParen, 1),
            b')' => (Token::RParen, 1),
            b',' => (Token::Comma, 1),
            b'.' => (Token::Dot, 1),
            b'*' => (Token::Star, 1),
            b'+' => (Token::Plus, 1),
            b'-' => (Token::Minus, 1),
            b'/' => (Token::Slash, 1),
            b';' => (Token::Semicolon, 1),
            b'=' => (Token::Eq, 1),
            b'<' => match next {
                Some(b'=') => (Token::Le, 2),
                Some(b'>') => (Token::Ne, 2),
                _ => (Token::Lt, 1),
            },
            b'>' if next == Some(b'=') => (Token::Ge, 2),
            b'>' => (Token::Gt, 1),
            b'!' if next == Some(b'=') => (Token::Ne, 2),
            b'\'' => string_literal(input, i)?,
            b'0'..=b'9' => number(input, i)?,
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let len = bytes[i..]
                    .iter()
                    .position(|&b| !(b.is_ascii_alphanumeric() || b == b'_'))
                    .unwrap_or(bytes.len() - i);
                let word = &input[i..i + len];
                let token = match Kw::of(word.as_bytes()) {
                    Some(kw) => Token::Kw(kw),
                    None => Token::Ident(Name::new(word)),
                };
                (token, len)
            }
            _ => {
                // `i` sits on a char boundary: every arm above consumes
                // whole ASCII bytes or whole string literals.
                let other = input[i..].chars().next().expect("i < input.len()");
                return Err(SqlError::new(format!("unexpected character {other:?}"), i));
            }
        };
        out.push(Spanned { token, offset: i });
        i += len;
    }
    Ok(out)
}

/// Input bytes per token the token vector is sized for, so that lexing
/// allocates it once. `sql_of`'s output averages 5.8 bytes a token, and
/// none of 40,000 rendered generator queries and views goes below 4.1; a
/// denser statement grows the vector.
const CAPACITY_BYTES: usize = 3;

/// The string literal whose opening quote is at `start`, and its length
/// in bytes.
fn string_literal(input: &str, start: usize) -> Result<(Token, usize), SqlError> {
    // Copy the text between quote bytes as `str` slices: a `'` byte never
    // occurs inside a multi-byte UTF-8 character, so every slice boundary
    // is a char boundary.
    let bytes = input.as_bytes();
    let mut s = String::new();
    let mut i = start + 1;
    loop {
        let Some(len) = input[i..].find('\'') else {
            return Err(SqlError::new("unterminated string literal", start));
        };
        s.push_str(&input[i..i + len]);
        i += len + 1;
        if bytes.get(i) != Some(&b'\'') {
            return Ok((Token::Str(s), i - start));
        }
        // `''` is an escaped quote.
        s.push('\'');
        i += 1;
    }
}

/// The number literal starting at `start`, and its length in bytes.
fn number(input: &str, start: usize) -> Result<(Token, usize), SqlError> {
    let bytes = input.as_bytes();
    let mut end = start;
    let mut is_float = false;
    while end < bytes.len()
        && (bytes[end].is_ascii_digit()
            || (bytes[end] == b'.' && end + 1 < bytes.len() && bytes[end + 1].is_ascii_digit()))
    {
        if bytes[end] == b'.' {
            is_float = true;
        }
        end += 1;
    }
    let text = &input[start..end];
    let invalid = || SqlError::new(format!("invalid number {text}"), start);
    let token = if is_float {
        Token::Float(text.parse().map_err(|_| invalid())?)
    } else {
        Token::Int(text.parse().map_err(|_| invalid())?)
    };
    Ok((token, end - start))
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
                Token::Kw(Kw::Select),
                Token::Ident("a".into()),
                Token::Comma,
                Token::Ident("b".into()),
                Token::Kw(Kw::From),
                Token::Ident("t".into()),
                Token::Kw(Kw::Where),
                Token::Ident("x".into()),
                Token::Le,
                Token::Int(10),
            ]
        );
    }

    #[test]
    fn keywords_in_any_case_and_no_others() {
        for (i, &(kw, text)) in KEYWORDS.iter().enumerate() {
            assert_eq!(kw as usize, i, "{text}");
            assert_eq!(kw.text(), text);
            assert_eq!(toks(text), vec![Token::Kw(kw)]);
            assert_eq!(toks(&text.to_uppercase()), vec![Token::Kw(kw)]);
        }
        assert_eq!(
            toks("selects count_bigger schemabindings sum_l_extendedprice"),
            vec![
                Token::Ident("selects".into()),
                Token::Ident("count_bigger".into()),
                Token::Ident("schemabindings".into()),
                Token::Ident("sum_l_extendedprice".into()),
            ]
        );
    }

    #[test]
    fn names_lowercase_inline_and_boxed() {
        let short = "L_ExtendedPrice";
        let long = "A_Name_Longer_Than_Twenty_Three_Bytes";
        assert!(long.len() > INLINE);
        for (text, inline) in [(short, true), (&short[..1], true), (long, false)] {
            let name = Name::new(text);
            assert_eq!(name.as_str(), text.to_ascii_lowercase());
            assert_eq!(matches!(name.0, Repr::Inline(_)), inline, "{text}");
            assert_eq!(toks(text), vec![Token::Ident(name)]);
        }
        assert_eq!(Name::new(&"x".repeat(INLINE)).as_str().len(), INLINE);
        assert_ne!(Name::new("ab"), Name::new("abc"));
        assert_eq!(std::mem::size_of::<Name>(), std::mem::size_of::<String>());
        assert_eq!(
            format!("{:?} {}", Name::new("Ab"), Name::new("Ab")),
            "\"ab\" ab"
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
