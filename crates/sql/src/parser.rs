//! Recursive-descent parser producing an unbound AST.

use crate::lexer::{Kw, Name, Spanned, Token};
use crate::SqlError;
use mv_expr::{BinOp, CmpOp};

/// Unbound scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AstScalar {
    /// `[qualifier.]name`, starting at byte `offset`.
    Column {
        qualifier: Option<Name>,
        name: Name,
        offset: usize,
    },
    Int(i64),
    Float(f64),
    Str(String),
    /// `DATE 'YYYY-MM-DD'`, the `DATE` keyword at byte `offset`.
    DateLit {
        text: String,
        offset: usize,
    },
    /// Binary arithmetic.
    Binary {
        op: BinOp,
        left: Box<AstScalar>,
        right: Box<AstScalar>,
    },
    /// Unary minus.
    Neg(Box<AstScalar>),
}

/// Unbound boolean expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AstBool {
    And(Vec<AstBool>),
    Or(Vec<AstBool>),
    Not(Box<AstBool>),
    Cmp {
        op: CmpOp,
        left: AstScalar,
        right: AstScalar,
    },
    Between {
        expr: AstScalar,
        lo: AstScalar,
        hi: AstScalar,
        negated: bool,
    },
    Like {
        expr: AstScalar,
        pattern: String,
        negated: bool,
    },
    IsNull {
        expr: AstScalar,
        negated: bool,
    },
}

/// Unbound aggregate call.
#[derive(Debug, Clone, PartialEq)]
pub enum AstAgg {
    /// `COUNT(*)` or `COUNT_BIG(*)`.
    CountStar,
    /// `SUM(expr)`.
    Sum(AstScalar),
    /// `AVG(expr)` — recognized so the binder can give a precise error
    /// (the paper rewrites AVG to SUM/COUNT at a level our plan shape
    /// does not represent).
    Avg(AstScalar),
}

/// One item of the select list, starting at byte `offset`.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    Scalar {
        expr: AstScalar,
        alias: Option<Name>,
        offset: usize,
    },
    Agg {
        agg: AstAgg,
        alias: Option<Name>,
        offset: usize,
    },
}

/// A table in the FROM list.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name (a `dbo.` schema prefix is accepted and dropped).
    pub name: Name,
    /// Optional alias.
    pub alias: Option<Name>,
    /// Byte offset of the table name.
    pub offset: usize,
}

/// An unbound SELECT block.
#[derive(Debug, Clone, PartialEq)]
pub struct AstSelect {
    pub items: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub where_clause: Option<AstBool>,
    /// The GROUP BY expressions, each with the byte offset it starts at.
    pub group_by: Vec<(AstScalar, usize)>,
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum AstStatement {
    Select(AstSelect),
    CreateView { name: Name, select: AstSelect },
}

/// How deeply `(`, `NOT`, unary `-` and the operators of an arithmetic
/// chain may nest. The parser recurses once per level, and so does
/// everything that walks or drops the tree it returns; past this bound a
/// statement is an error, not a stack overflow.
const MAX_NESTING: usize = 128;

struct Parser<'a> {
    tokens: &'a [Spanned],
    pos: usize,
    /// Levels open at `pos`.
    depth: usize,
}

/// Parse a full statement.
pub fn parse(tokens: &[Spanned]) -> Result<AstStatement, SqlError> {
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let stmt = if p.peek_keyword(Kw::Create) {
        p.parse_create_view()?
    } else {
        AstStatement::Select(p.parse_select()?)
    };
    p.eat(&Token::Semicolon);
    if p.pos != p.tokens.len() {
        return Err(p.error("unexpected trailing input"));
    }
    Ok(stmt)
}

impl<'a> Parser<'a> {
    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|t| t.offset)
            .unwrap_or_else(|| self.tokens.last().map(|t| t.offset + 1).unwrap_or(0))
    }

    fn error(&self, msg: impl Into<String>) -> SqlError {
        SqlError::new(msg, self.offset())
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn peek_keyword(&self, kw: Kw) -> bool {
        matches!(self.peek(), Some(Token::Kw(k)) if *k == kw)
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, kw: Kw) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token, what: &str) -> Result<(), SqlError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.error(format!("expected {what}")))
        }
    }

    fn expect_keyword(&mut self, kw: Kw) -> Result<(), SqlError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected {}", kw.text().to_uppercase())))
        }
    }

    /// Open one more level of nesting, unless [`MAX_NESTING`] are open.
    fn open(&mut self) -> Result<(), SqlError> {
        if self.depth == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        Ok(())
    }

    #[cold]
    fn too_deep(&self) -> SqlError {
        self.error(format!(
            "expression nested deeper than {MAX_NESTING} levels"
        ))
    }

    /// Parse one level deeper: `f` runs with the level open.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, SqlError>,
    ) -> Result<T, SqlError> {
        self.open()?;
        let parsed = f(self);
        self.depth -= 1;
        parsed
    }

    fn expect_ident(&mut self, what: &str) -> Result<Name, SqlError> {
        self.eat_ident()
            .ok_or_else(|| self.error(format!("expected {what}")))
    }

    /// Take the name at `pos`, if there is one.
    fn eat_ident(&mut self) -> Option<Name> {
        let Some(Token::Ident(name)) = self.peek() else {
            return None;
        };
        let name = name.clone();
        self.pos += 1;
        Some(name)
    }

    fn parse_create_view(&mut self) -> Result<AstStatement, SqlError> {
        self.expect_keyword(Kw::Create)?;
        self.expect_keyword(Kw::View)?;
        let name = self.expect_ident("view name")?;
        if self.eat_keyword(Kw::With) {
            self.expect_keyword(Kw::Schemabinding)?;
        }
        self.expect_keyword(Kw::As)?;
        let select = self.parse_select()?;
        Ok(AstStatement::CreateView { name, select })
    }

    fn parse_select(&mut self) -> Result<AstSelect, SqlError> {
        self.expect_keyword(Kw::Select)?;
        let mut items = vec![self.parse_select_item()?];
        while self.eat(&Token::Comma) {
            items.push(self.parse_select_item()?);
        }
        self.expect_keyword(Kw::From)?;
        let mut from = vec![self.parse_table_ref()?];
        while self.eat(&Token::Comma) {
            from.push(self.parse_table_ref()?);
        }
        let where_clause = if self.eat_keyword(Kw::Where) {
            Some(self.parse_bool()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword(Kw::Group) {
            self.expect_keyword(Kw::By)?;
            loop {
                let offset = self.offset();
                group_by.push((self.parse_scalar()?, offset));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        Ok(AstSelect {
            items,
            from,
            where_clause,
            group_by,
        })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, SqlError> {
        let offset = self.offset();
        // Aggregates.
        let agg = if self.eat_keyword(Kw::Count) || self.eat_keyword(Kw::CountBig) {
            self.expect(&Token::LParen, "(")?;
            self.expect(&Token::Star, "*")?;
            self.expect(&Token::RParen, ")")?;
            Some(AstAgg::CountStar)
        } else if self.eat_keyword(Kw::Sum) {
            self.expect(&Token::LParen, "(")?;
            let e = self.parse_scalar()?;
            self.expect(&Token::RParen, ")")?;
            Some(AstAgg::Sum(e))
        } else if self.eat_keyword(Kw::Avg) {
            self.expect(&Token::LParen, "(")?;
            let e = self.parse_scalar()?;
            self.expect(&Token::RParen, ")")?;
            Some(AstAgg::Avg(e))
        } else {
            None
        };
        if let Some(agg) = agg {
            let alias = self.parse_alias()?;
            return Ok(SelectItem::Agg { agg, alias, offset });
        }
        let expr = self.parse_scalar()?;
        let alias = self.parse_alias()?;
        Ok(SelectItem::Scalar {
            expr,
            alias,
            offset,
        })
    }

    fn parse_alias(&mut self) -> Result<Option<Name>, SqlError> {
        if self.eat_keyword(Kw::As) {
            return Ok(Some(self.expect_ident("alias")?));
        }
        // Bare alias.
        Ok(self.eat_ident())
    }

    fn parse_table_ref(&mut self) -> Result<TableRef, SqlError> {
        let mut offset = self.offset();
        let mut name = self.expect_ident("table name")?;
        if self.eat(&Token::Dot) {
            // schema.table — the schema (e.g. `dbo`) is dropped.
            offset = self.offset();
            name = self.expect_ident("table name")?;
        }
        let alias = self.eat_ident();
        Ok(TableRef {
            name,
            alias,
            offset,
        })
    }

    // Boolean grammar: or := and (OR and)*, and := unary (AND unary)*,
    // unary := NOT unary | predicate | ( or ).
    fn parse_bool(&mut self) -> Result<AstBool, SqlError> {
        let mut parts = vec![self.parse_bool_and()?];
        while self.eat_keyword(Kw::Or) {
            parts.push(self.parse_bool_and()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            AstBool::Or(parts)
        })
    }

    fn parse_bool_and(&mut self) -> Result<AstBool, SqlError> {
        let mut parts = vec![self.parse_bool_unary()?];
        while self.eat_keyword(Kw::And) {
            parts.push(self.parse_bool_unary()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            AstBool::And(parts)
        })
    }

    fn parse_bool_unary(&mut self) -> Result<AstBool, SqlError> {
        if self.eat_keyword(Kw::Not) {
            let inner = self.nested(Self::parse_bool_unary)?;
            return Ok(AstBool::Not(Box::new(inner)));
        }
        // A leading '(' is ambiguous: boolean group or scalar
        // parenthesization. Try the boolean reading first and backtrack.
        // Each level tries both readings, so the nesting bound also bounds
        // the backtracking.
        if self.peek() == Some(&Token::LParen) {
            let save = self.pos;
            self.pos += 1;
            if let Ok(inner) = self.nested(Self::parse_bool) {
                if self.eat(&Token::RParen) {
                    return Ok(inner);
                }
            }
            self.pos = save;
        }
        self.parse_predicate()
    }

    fn parse_predicate(&mut self) -> Result<AstBool, SqlError> {
        let left = self.parse_scalar()?;
        // IS [NOT] NULL
        if self.eat_keyword(Kw::Is) {
            let negated = self.eat_keyword(Kw::Not);
            self.expect_keyword(Kw::Null)?;
            return Ok(AstBool::IsNull {
                expr: left,
                negated,
            });
        }
        // [NOT] LIKE / BETWEEN
        let negated = self.eat_keyword(Kw::Not);
        if self.eat_keyword(Kw::Like) {
            let pattern = match self.peek() {
                Some(Token::Str(s)) => {
                    let s = s.clone();
                    self.pos += 1;
                    s
                }
                _ => return Err(self.error("expected a string pattern after LIKE")),
            };
            return Ok(AstBool::Like {
                expr: left,
                pattern,
                negated,
            });
        }
        if self.eat_keyword(Kw::Between) {
            let lo = self.parse_scalar()?;
            self.expect_keyword(Kw::And)?;
            let hi = self.parse_scalar()?;
            return Ok(AstBool::Between {
                expr: left,
                lo,
                hi,
                negated,
            });
        }
        if negated {
            return Err(self.error("expected LIKE or BETWEEN after NOT"));
        }
        let op = match self.peek() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            Some(Token::Ne) => CmpOp::Ne,
            _ => return Err(self.error("expected a comparison operator")),
        };
        self.pos += 1;
        let right = self.parse_scalar()?;
        Ok(AstBool::Cmp { op, left, right })
    }

    // Scalar grammar: additive := mult ((+|-) mult)*,
    // mult := unary ((*|/) unary)*, unary := - unary | primary.
    fn parse_scalar(&mut self) -> Result<AstScalar, SqlError> {
        self.parse_chain(Self::parse_mult, |t| match t {
            Token::Plus => Some(BinOp::Add),
            Token::Minus => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn parse_mult(&mut self) -> Result<AstScalar, SqlError> {
        self.parse_chain(Self::parse_unary, |t| match t {
            Token::Star => Some(BinOp::Mul),
            Token::Slash => Some(BinOp::Div),
            _ => None,
        })
    }

    /// `operand (op operand)*`, left-associative. The tree gets one level
    /// deeper with every operator, so each operator opens a level for the
    /// rest of the chain; all of them close where the chain ends.
    fn parse_chain(
        &mut self,
        operand: impl Fn(&mut Self) -> Result<AstScalar, SqlError>,
        op_of: impl Fn(&Token) -> Option<BinOp>,
    ) -> Result<AstScalar, SqlError> {
        let mut left = operand(self)?;
        let outer = self.depth;
        while let Some(op) = self.peek().and_then(&op_of) {
            let right = self.open().and_then(|()| {
                self.pos += 1;
                operand(self)
            });
            let right = match right {
                Ok(right) => right,
                Err(e) => {
                    self.depth = outer;
                    return Err(e);
                }
            };
            left = AstScalar::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        self.depth = outer;
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<AstScalar, SqlError> {
        if self.eat(&Token::Minus) {
            let inner = self.nested(Self::parse_unary)?;
            return Ok(AstScalar::Neg(Box::new(inner)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<AstScalar, SqlError> {
        match self.peek().cloned() {
            Some(Token::Int(v)) => {
                self.pos += 1;
                Ok(AstScalar::Int(v))
            }
            Some(Token::Float(v)) => {
                self.pos += 1;
                Ok(AstScalar::Float(v))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(AstScalar::Str(s))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                let e = self.nested(Self::parse_scalar)?;
                self.expect(&Token::RParen, ")")?;
                Ok(e)
            }
            Some(Token::Kw(Kw::Date)) => {
                let offset = self.offset();
                self.pos += 1;
                match self.peek().cloned() {
                    Some(Token::Str(text)) => {
                        self.pos += 1;
                        Ok(AstScalar::DateLit { text, offset })
                    }
                    _ => Err(self.error("expected a date string after DATE")),
                }
            }
            Some(Token::Ident(first)) => {
                let offset = self.offset();
                self.pos += 1;
                let (qualifier, name) = if self.eat(&Token::Dot) {
                    (Some(first), self.expect_ident("column name")?)
                } else {
                    (None, first)
                };
                Ok(AstScalar::Column {
                    qualifier,
                    name,
                    offset,
                })
            }
            _ => Err(self.error("expected an expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn parse_ok(sql: &str) -> AstStatement {
        parse(&tokenize(sql).unwrap()).unwrap_or_else(|e| panic!("{sql}: {e}"))
    }

    #[test]
    fn simple_select() {
        let AstStatement::Select(s) = parse_ok("SELECT a, b FROM t WHERE a = 1") else {
            panic!()
        };
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.from.len(), 1);
        assert!(s.where_clause.is_some());
        assert!(s.group_by.is_empty());
    }

    #[test]
    fn aggregates_and_group_by() {
        let AstStatement::Select(s) = parse_ok(
            "SELECT o_custkey, COUNT_BIG(*) AS cnt, SUM(a * b) AS total \
             FROM orders GROUP BY o_custkey",
        ) else {
            panic!()
        };
        assert!(matches!(
            s.items[1],
            SelectItem::Agg {
                agg: AstAgg::CountStar,
                ..
            }
        ));
        assert!(matches!(
            s.items[2],
            SelectItem::Agg {
                agg: AstAgg::Sum(_),
                ..
            }
        ));
        assert_eq!(s.group_by.len(), 1);
    }

    #[test]
    fn create_view_with_schemabinding() {
        let AstStatement::CreateView { name, select } =
            parse_ok("CREATE VIEW v1 WITH SCHEMABINDING AS SELECT a FROM dbo.t")
        else {
            panic!()
        };
        assert_eq!(name.as_str(), "v1");
        assert_eq!(select.from[0].name.as_str(), "t");
    }

    #[test]
    fn between_like_is_null() {
        let AstStatement::Select(s) = parse_ok(
            "SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b LIKE '%x%' \
             AND c IS NOT NULL AND d NOT LIKE 'y%'",
        ) else {
            panic!()
        };
        let AstBool::And(parts) = s.where_clause.unwrap() else {
            panic!()
        };
        assert_eq!(parts.len(), 4);
        assert!(matches!(parts[0], AstBool::Between { negated: false, .. }));
        assert!(matches!(parts[1], AstBool::Like { negated: false, .. }));
        assert!(matches!(parts[2], AstBool::IsNull { negated: true, .. }));
        assert!(matches!(parts[3], AstBool::Like { negated: true, .. }));
    }

    #[test]
    fn boolean_parentheses_and_precedence() {
        let AstStatement::Select(s) = parse_ok("SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3")
        else {
            panic!()
        };
        let AstBool::And(parts) = s.where_clause.unwrap() else {
            panic!("AND should be at the top")
        };
        assert!(matches!(parts[0], AstBool::Or(_)));
    }

    #[test]
    fn scalar_parentheses_in_comparison() {
        // The '(' here must backtrack to a scalar reading.
        let AstStatement::Select(s) = parse_ok("SELECT a FROM t WHERE (a + b) * 2 > 10") else {
            panic!()
        };
        assert!(matches!(s.where_clause.unwrap(), AstBool::Cmp { .. }));
    }

    #[test]
    fn arithmetic_precedence() {
        let AstStatement::Select(s) = parse_ok("SELECT a + b * c FROM t") else {
            panic!()
        };
        let SelectItem::Scalar { expr, .. } = &s.items[0] else {
            panic!()
        };
        // a + (b * c)
        let AstScalar::Binary {
            op: BinOp::Add,
            right,
            ..
        } = expr
        else {
            panic!("expected + at the top, got {expr:?}")
        };
        assert!(matches!(**right, AstScalar::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn aliases_and_qualified_columns() {
        let AstStatement::Select(s) = parse_ok(
            "SELECT l.l_orderkey AS k FROM lineitem l, orders o WHERE l.l_orderkey = o.o_orderkey",
        ) else {
            panic!()
        };
        assert_eq!(s.from[0].alias, Some("l".into()));
        assert_eq!(s.from[1].offset, 42);
        let SelectItem::Scalar { expr, alias, .. } = &s.items[0] else {
            panic!()
        };
        assert_eq!(*alias, Some("k".into()));
        assert_eq!(
            *expr,
            AstScalar::Column {
                qualifier: Some("l".into()),
                name: "l_orderkey".into(),
                offset: 7,
            }
        );
    }

    #[test]
    fn date_literals_and_negatives() {
        let AstStatement::Select(s) =
            parse_ok("SELECT a FROM t WHERE d >= DATE '1994-01-01' AND x > -5")
        else {
            panic!()
        };
        let AstBool::And(parts) = s.where_clause.unwrap() else {
            panic!()
        };
        assert!(matches!(
            &parts[0],
            AstBool::Cmp { right: AstScalar::DateLit { text, .. }, .. } if text == "1994-01-01"
        ));
        assert!(matches!(
            &parts[1],
            AstBool::Cmp {
                right: AstScalar::Neg(_),
                ..
            }
        ));
    }

    #[test]
    fn nesting_is_bounded() {
        let sql = |depth: usize, form: &str| {
            let (open, close) = match form {
                "boolean" => ("(".repeat(depth), format!("n = 1{}", ")".repeat(depth))),
                "scalar" => ("(".repeat(depth), format!("n{} = 1", ")".repeat(depth))),
                "not" => ("NOT ".repeat(depth), "n = 1".to_string()),
                "minus" => (String::new(), format!("n = {}1", "- ".repeat(depth))),
                _ => (String::new(), format!("n = 1{}", " + 1".repeat(depth))),
            };
            format!("SELECT n FROM t WHERE {open}{close}")
        };
        for form in ["boolean", "scalar", "not", "minus", "sum"] {
            parse_ok(&sql(64, form));
            parse_ok(&sql(MAX_NESTING - 1, form));
            for depth in [MAX_NESTING + 1, 10_000] {
                let err = parse(&tokenize(&sql(depth, form)).unwrap()).unwrap_err();
                assert!(err.to_string().contains("nested deeper"), "{form}: {err}");
            }
        }
    }

    #[test]
    fn errors_are_reported() {
        // One statement per keyword expectation and error path, with the
        // message and byte offset each reports.
        for (bad, message, offset) in [
            ("FROM t", "expected SELECT", 0),
            ("SELECT a", "expected FROM", 8),
            ("SELECT a FROM", "expected table name", 10),
            ("SELECT a FROM dbo.", "expected table name", 18),
            ("SELECT a FROM t GROUP a", "expected BY", 22),
            ("SELECT a FROM t WHERE a IS 1", "expected NULL", 27),
            ("SELECT a FROM t WHERE a BETWEEN 1 OR 2", "expected AND", 34),
            ("CREATE TABLE t", "expected VIEW", 7),
            ("CREATE VIEW AS SELECT a FROM t", "expected view name", 12),
            (
                "CREATE VIEW v WITH AS SELECT a FROM t",
                "expected SCHEMABINDING",
                19,
            ),
            ("CREATE VIEW v SELECT a FROM t", "expected AS", 14),
            ("SELECT a AS FROM t", "expected alias", 12),
            ("SELECT t. FROM t", "expected column name", 10),
            ("SELECT COUNT_BIG * FROM t", "expected (", 17),
            ("SELECT COUNT(a) FROM t", "expected *", 13),
            ("SELECT SUM(a FROM t", "expected )", 13),
            ("SELECT FROM t", "expected an expression", 7),
            ("SELECT a FROM t WHERE", "expected an expression", 17),
            (
                "SELECT a FROM t WHERE a NOT = 1",
                "expected LIKE or BETWEEN after NOT",
                28,
            ),
            (
                "SELECT a FROM t WHERE a 1",
                "expected a comparison operator",
                24,
            ),
            ("SELECT a FROM t WHERE a ==", "expected an expression", 25),
            (
                "SELECT a FROM t WHERE a LIKE 1",
                "expected a string pattern after LIKE",
                29,
            ),
            (
                "SELECT a FROM t WHERE a = DATE 1",
                "expected a date string after DATE",
                31,
            ),
            (
                "SELECT a FROM t extra garbage (",
                "unexpected trailing input",
                22,
            ),
            (
                "SELECT a FROM t WHERE a = 'x",
                "unterminated string literal",
                26,
            ),
            (
                "SELECT a FROM t WHERE a = @",
                "unexpected character '@'",
                26,
            ),
            (
                "SELECT a FROM t WHERE a = 99999999999999999999",
                "invalid number 99999999999999999999",
                26,
            ),
        ] {
            let err = tokenize(bad).and_then(|t| parse(&t)).unwrap_err();
            assert_eq!(
                (err.message.as_str(), err.offset),
                (message, offset),
                "{bad}"
            );
        }
    }
}
