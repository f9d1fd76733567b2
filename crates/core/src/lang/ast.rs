//! Recursive-descent parser producing the untyped, span-carrying AST.
//!
//! Grammar (precedence low → high, `!` binding tightest — the HEL
//! convention):
//!
//! ```text
//! expr       := or
//! or         := and ( "||" and )*
//! and        := comparison ( "&&" comparison )*
//! comparison := unary ( ("==" | "!=" | "<" | "<=" | ">" | ">=" |
//!                        "CONTAINS" | "IN") unary )?
//! unary      := "!" unary | primary
//! primary    := "true" | "false" | NUMBER | STRING
//!             | "[" ( expr ( "," expr )* )? "]"
//!             | PATH | PATH "(" ( expr ( "," expr )* )? ")"
//!             | "(" expr ")"
//! PATH       := IDENT ( "." IDENT )*
//! ```
//!
//! Comparisons do not chain (`a == b == c` is a parse error), matching the
//! boolean-expression character of the language.

use super::lex::{end_span, tokenize, LangError, Span, Tok, Token};

/// Comparison operators, including the two membership forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparator {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `CONTAINS` — list ∋ element, or string ⊇ substring.
    Contains,
    /// `IN` — element ∈ list.
    In,
}

impl Comparator {
    /// Source spelling.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Comparator::Eq => "==",
            Comparator::Ne => "!=",
            Comparator::Lt => "<",
            Comparator::Le => "<=",
            Comparator::Gt => ">",
            Comparator::Ge => ">=",
            Comparator::Contains => "CONTAINS",
            Comparator::In => "IN",
        }
    }
}

/// One parsed expression node with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The node.
    pub kind: ExprKind,
    /// Source region the node covers.
    pub span: Span,
}

/// The untyped AST. Every compound carries boxed children; `Attribute` and
/// `FunctionCall` keep their dotted paths as segments until the type-check
/// pass resolves them against the schema / builtins registry.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// `true` / `false`.
    Bool(bool),
    /// Numeric literal.
    Number(f64),
    /// String literal (escapes already decoded).
    String(String),
    /// Dotted attribute reference, e.g. `socket.port`.
    Attribute(Vec<String>),
    /// `[a, b, c]`.
    ListLiteral(Vec<Expr>),
    /// Namespaced call, e.g. `core.len(x)`.
    FunctionCall {
        /// Dotted function path (`["core", "len"]`).
        path: Vec<String>,
        /// Arguments in order.
        args: Vec<Expr>,
    },
    /// Binary comparison.
    Comparison {
        /// The operator.
        op: Comparator,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `lhs && rhs`.
    And(Box<Expr>, Box<Expr>),
    /// `lhs || rhs`.
    Or(Box<Expr>, Box<Expr>),
    /// `!inner`.
    Not(Box<Expr>),
}

/// Nesting bound: parentheses, list literals, call arguments and `!` chains
/// all recurse, and fuzzed inputs like `((((…` must fail cleanly instead of
/// overflowing the stack.
const MAX_DEPTH: u32 = 64;

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    end: Span,
    depth: u32,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.kind)
    }

    fn bump(&mut self) -> Option<Token> {
        let tok = self.toks.get(self.pos).cloned();
        if tok.is_some() {
            self.pos += 1;
        }
        tok
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<Span, LangError> {
        match self.bump() {
            Some(tok) if tok.kind == *want => Ok(tok.span),
            Some(tok) => Err(LangError::new(
                format!("expected {what}, found {}", tok.kind.describe()),
                tok.span,
            )),
            None => Err(LangError::new(
                format!("expected {what}, found end of expression"),
                self.end,
            )),
        }
    }

    fn enter(&mut self, span: Span) -> Result<(), LangError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(LangError::new(
                format!("expression nests deeper than {MAX_DEPTH} levels"),
                span,
            ));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn or(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.and()?;
        while matches!(self.peek(), Some(Tok::OrOr)) {
            self.bump();
            let rhs = self.and()?;
            let span = lhs.span.through(rhs.span);
            lhs = Expr {
                kind: ExprKind::Or(Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
        Ok(lhs)
    }

    fn and(&mut self) -> Result<Expr, LangError> {
        let mut lhs = self.comparison()?;
        while matches!(self.peek(), Some(Tok::AndAnd)) {
            self.bump();
            let rhs = self.comparison()?;
            let span = lhs.span.through(rhs.span);
            lhs = Expr {
                kind: ExprKind::And(Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
        Ok(lhs)
    }

    fn comparison(&mut self) -> Result<Expr, LangError> {
        let lhs = self.unary()?;
        let op = match self.peek() {
            Some(Tok::EqEq) => Comparator::Eq,
            Some(Tok::NotEq) => Comparator::Ne,
            Some(Tok::Lt) => Comparator::Lt,
            Some(Tok::LtEq) => Comparator::Le,
            Some(Tok::Gt) => Comparator::Gt,
            Some(Tok::GtEq) => Comparator::Ge,
            Some(Tok::Contains) => Comparator::Contains,
            Some(Tok::In) => Comparator::In,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.unary()?;
        let span = lhs.span.through(rhs.span);
        Ok(Expr {
            kind: ExprKind::Comparison {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
            span,
        })
    }

    fn unary(&mut self) -> Result<Expr, LangError> {
        if matches!(self.peek(), Some(Tok::Not)) {
            let bang = self.bump().expect("peeked").span;
            self.enter(bang)?;
            let inner = self.unary();
            self.leave();
            let inner = inner?;
            let span = bang.through(inner.span);
            return Ok(Expr {
                kind: ExprKind::Not(Box::new(inner)),
                span,
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, LangError> {
        let Some(tok) = self.bump() else {
            return Err(LangError::new(
                "expected an expression, found end of expression",
                self.end,
            ));
        };
        match tok.kind {
            Tok::True => Ok(Expr {
                kind: ExprKind::Bool(true),
                span: tok.span,
            }),
            Tok::False => Ok(Expr {
                kind: ExprKind::Bool(false),
                span: tok.span,
            }),
            Tok::Number(n) => Ok(Expr {
                kind: ExprKind::Number(n),
                span: tok.span,
            }),
            Tok::Str(s) => Ok(Expr {
                kind: ExprKind::String(s),
                span: tok.span,
            }),
            Tok::LParen => {
                self.enter(tok.span)?;
                let inner = self.or();
                self.leave();
                let inner = inner?;
                let close = self.expect(&Tok::RParen, "`)`")?;
                Ok(Expr {
                    kind: inner.kind,
                    span: tok.span.through(close),
                })
            }
            Tok::LBracket => {
                self.enter(tok.span)?;
                let items = self.comma_separated(&Tok::RBracket, "`]`");
                self.leave();
                let (items, close) = items?;
                Ok(Expr {
                    kind: ExprKind::ListLiteral(items),
                    span: tok.span.through(close),
                })
            }
            Tok::Ident(first) => {
                let mut path = vec![first];
                let mut span = tok.span;
                while matches!(self.peek(), Some(Tok::Dot)) {
                    self.bump();
                    match self.bump() {
                        Some(Token {
                            kind: Tok::Ident(seg),
                            span: seg_span,
                        }) => {
                            path.push(seg);
                            span = span.through(seg_span);
                        }
                        Some(other) => {
                            return Err(LangError::new(
                                format!(
                                    "expected an identifier after `.`, found {}",
                                    other.kind.describe()
                                ),
                                other.span,
                            ))
                        }
                        None => {
                            return Err(LangError::new(
                                "expected an identifier after `.`, found end of expression",
                                self.end,
                            ))
                        }
                    }
                }
                if matches!(self.peek(), Some(Tok::LParen)) {
                    let open = self.bump().expect("peeked").span;
                    self.enter(open)?;
                    let args = self.comma_separated(&Tok::RParen, "`)`");
                    self.leave();
                    let (args, close) = args?;
                    return Ok(Expr {
                        kind: ExprKind::FunctionCall { path, args },
                        span: span.through(close),
                    });
                }
                Ok(Expr {
                    kind: ExprKind::Attribute(path),
                    span,
                })
            }
            other => Err(LangError::new(
                format!("expected an expression, found {}", other.describe()),
                tok.span,
            )),
        }
    }

    /// Parses `expr ("," expr)*` up to (and including) `close`. Returns the
    /// items and the span of the closing token.
    fn comma_separated(&mut self, close: &Tok, what: &str) -> Result<(Vec<Expr>, Span), LangError> {
        let mut items = Vec::new();
        if self.peek() == Some(close) {
            let span = self.bump().expect("peeked").span;
            return Ok((items, span));
        }
        loop {
            items.push(self.or()?);
            match self.bump() {
                Some(tok) if tok.kind == *close => return Ok((items, tok.span)),
                Some(tok) if tok.kind == Tok::Comma => continue,
                Some(tok) => {
                    return Err(LangError::new(
                        format!("expected `,` or {what}, found {}", tok.kind.describe()),
                        tok.span,
                    ))
                }
                None => {
                    return Err(LangError::new(
                        format!("expected `,` or {what}, found end of expression"),
                        self.end,
                    ))
                }
            }
        }
    }
}

/// Parses one expression; the whole input must be consumed.
pub fn parse(src: &str) -> Result<Expr, LangError> {
    let toks = tokenize(src)?;
    let mut parser = Parser {
        toks,
        pos: 0,
        end: end_span(src),
        depth: 0,
    };
    let expr = parser.or()?;
    if let Some(extra) = parser.toks.get(parser.pos) {
        return Err(LangError::new(
            format!("unexpected {} after the expression", extra.kind.describe()),
            extra.span,
        ));
    }
    Ok(expr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_not_over_comparison_over_and_over_or() {
        // !a && b == c || d  parses as  ((!a) && (b == c)) || d
        let e = parse("!a && b == c || d").unwrap();
        let ExprKind::Or(lhs, rhs) = e.kind else {
            panic!("top must be Or")
        };
        assert!(matches!(rhs.kind, ExprKind::Attribute(_)));
        let ExprKind::And(l, r) = lhs.kind else {
            panic!("lhs must be And")
        };
        assert!(matches!(l.kind, ExprKind::Not(_)));
        assert!(matches!(
            r.kind,
            ExprKind::Comparison {
                op: Comparator::Eq,
                ..
            }
        ));
    }

    #[test]
    fn calls_lists_and_membership() {
        let e = parse("core.len([1, 2, 3]) > 2 && socket.port IN [80, 443]").unwrap();
        assert!(matches!(e.kind, ExprKind::And(..)));
        let e = parse("labels.get(\"app\") CONTAINS \"web\"").unwrap();
        assert!(matches!(
            e.kind,
            ExprKind::Comparison {
                op: Comparator::Contains,
                ..
            }
        ));
    }

    #[test]
    fn spans_cover_whole_nodes() {
        let src = "a.b == core.len(x)";
        let e = parse(src).unwrap();
        assert_eq!(e.span.slice(src), src);
    }

    #[test]
    fn chained_comparison_is_an_error() {
        let err = parse("1 == 2 == 3").unwrap_err();
        assert!(err.message.contains("unexpected"), "{err}");
        assert_eq!(err.span.column, 8);
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let src = "(".repeat(500) + "true" + &")".repeat(500);
        let err = parse(&src).unwrap_err();
        assert!(err.message.contains("nests deeper"), "{err}");
        let bangs = "!".repeat(500) + "true";
        assert!(parse(&bangs).is_err());
    }

    #[test]
    fn error_positions_point_at_the_problem() {
        let err = parse("a &&").unwrap_err();
        assert_eq!(err.span.column, 5);
        let err = parse("a . 3").unwrap_err();
        assert_eq!(err.span.column, 5);
        assert!(err.message.contains("after `.`"));
    }
}
