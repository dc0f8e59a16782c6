//! Recursive-descent parser for the Reach grammar (see crate docs).

use crate::ast::{Expr, NameRef, SetKind};
use crate::lexer::{lex, Token, TokenKind};
use crate::ReachError;

/// Height of the deepest predicate tree [`parse`] builds, counting each
/// operator, atom and parenthesised group as one level. Parsing, compiling,
/// evaluating and dropping a tree all recurse on its height, so deeper
/// input is [`ReachError::TooDeep`] rather than a stack overflow.
pub(crate) const MAX_DEPTH: usize = 256;

pub(crate) fn parse(src: &str) -> Result<Expr, ReachError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let (e, _) = p.iff()?;
    if p.pos != p.tokens.len() {
        let t = &p.tokens[p.pos];
        return Err(ReachError::UnexpectedToken {
            offset: t.offset,
            found: t.kind.describe(),
            expected: "end of input",
        });
    }
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels above the subtree being parsed.
    depth: usize,
}

/// A parsed subtree and its height (an atom has height 1).
type Sub = (Expr, usize);

impl Parser {
    /// Parses a child subtree one level down with `f`, failing before the
    /// tree can outgrow [`MAX_DEPTH`] — checked on the way down, so
    /// nesting never recurses past the bound.
    fn below(&mut self, f: fn(&mut Self) -> Result<Sub, ReachError>) -> Result<Sub, ReachError> {
        if self.depth + 1 >= MAX_DEPTH {
            return Err(ReachError::TooDeep { limit: MAX_DEPTH });
        }
        self.depth += 1;
        let sub = f(self);
        self.depth -= 1;
        sub
    }

    /// Joins `lhs` and a `rhs` parsed by [`Parser::below`] under the binary
    /// operator `op`. The left operand was parsed at this level, so a left
    /// associative chain grows the tree here.
    fn join(
        &self,
        lhs: Sub,
        rhs: Sub,
        op: fn(Box<Expr>, Box<Expr>) -> Expr,
    ) -> Result<Sub, ReachError> {
        let height = lhs.1.max(rhs.1) + 1;
        if self.depth + height > MAX_DEPTH {
            return Err(ReachError::TooDeep { limit: MAX_DEPTH });
        }
        Ok((op(Box::new(lhs.0), Box::new(rhs.0)), height))
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn bump(&mut self) -> Result<&Token, ReachError> {
        let t = self.tokens.get(self.pos).ok_or(ReachError::UnexpectedEnd)?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, kind: &TokenKind, what: &'static str) -> Result<(), ReachError> {
        let t = self.tokens.get(self.pos).ok_or(ReachError::UnexpectedEnd)?;
        if &t.kind == kind {
            self.pos += 1;
            Ok(())
        } else {
            Err(ReachError::UnexpectedToken {
                offset: t.offset,
                found: t.kind.describe(),
                expected: what,
            })
        }
    }

    fn iff(&mut self) -> Result<Sub, ReachError> {
        let mut lhs = self.imp()?;
        while self.peek() == Some(&TokenKind::DArrow) {
            self.pos += 1;
            let rhs = self.below(Self::imp)?;
            lhs = self.join(lhs, rhs, Expr::Iff)?;
        }
        Ok(lhs)
    }

    fn imp(&mut self) -> Result<Sub, ReachError> {
        let lhs = self.or()?;
        if self.peek() == Some(&TokenKind::Arrow) {
            self.pos += 1;
            // right associative
            let rhs = self.below(Self::imp)?;
            return self.join(lhs, rhs, Expr::Imp);
        }
        Ok(lhs)
    }

    fn or(&mut self) -> Result<Sub, ReachError> {
        let mut lhs = self.xor()?;
        while self.peek() == Some(&TokenKind::Pipe) {
            self.pos += 1;
            let rhs = self.below(Self::xor)?;
            lhs = self.join(lhs, rhs, Expr::Or)?;
        }
        Ok(lhs)
    }

    fn xor(&mut self) -> Result<Sub, ReachError> {
        let mut lhs = self.and()?;
        while self.peek() == Some(&TokenKind::Caret) {
            self.pos += 1;
            let rhs = self.below(Self::and)?;
            lhs = self.join(lhs, rhs, Expr::Xor)?;
        }
        Ok(lhs)
    }

    fn and(&mut self) -> Result<Sub, ReachError> {
        let mut lhs = self.not()?;
        while self.peek() == Some(&TokenKind::Amp) {
            self.pos += 1;
            let rhs = self.below(Self::not)?;
            lhs = self.join(lhs, rhs, Expr::And)?;
        }
        Ok(lhs)
    }

    fn not(&mut self) -> Result<Sub, ReachError> {
        if self.peek() == Some(&TokenKind::Bang) {
            self.pos += 1;
            let (e, height) = self.below(Self::not)?;
            return Ok((Expr::Not(Box::new(e)), height + 1));
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Sub, ReachError> {
        let t = self.bump()?.clone();
        match t.kind {
            TokenKind::LParen => {
                let (e, height) = self.below(Self::iff)?;
                self.expect(&TokenKind::RParen, "`)`")?;
                Ok((e, height + 1))
            }
            TokenKind::Ident(ref id) => match id.as_str() {
                "true" => Ok((Expr::Const(true), 1)),
                "false" => Ok((Expr::Const(false), 1)),
                "marked" => {
                    let name = self.name_arg()?;
                    Ok((Expr::Marked(name), 1))
                }
                "enabled" => {
                    let name = self.name_arg()?;
                    Ok((Expr::Enabled(name), 1))
                }
                "forall" | "exists" => {
                    let is_forall = id == "forall";
                    let var = self.ident("variable name")?;
                    let in_kw = self.ident("`in`")?;
                    if in_kw != "in" {
                        return Err(ReachError::UnexpectedToken {
                            offset: t.offset,
                            found: format!("identifier `{in_kw}`"),
                            expected: "`in`",
                        });
                    }
                    let set_kw = self.ident("`places` or `transitions`")?;
                    let set = match set_kw.as_str() {
                        "places" => SetKind::Places,
                        "transitions" => SetKind::Transitions,
                        other => {
                            return Err(ReachError::UnexpectedToken {
                                offset: t.offset,
                                found: format!("identifier `{other}`"),
                                expected: "`places` or `transitions`",
                            })
                        }
                    };
                    self.expect(&TokenKind::LParen, "`(`")?;
                    let pattern = self.string("glob pattern")?;
                    self.expect(&TokenKind::RParen, "`)`")?;
                    self.expect(&TokenKind::Colon, "`:`")?;
                    let (body, height) = self.below(Self::not)?;
                    let body = Box::new(body);
                    let e = if is_forall {
                        Expr::Forall {
                            var,
                            set,
                            pattern,
                            body,
                        }
                    } else {
                        Expr::Exists {
                            var,
                            set,
                            pattern,
                            body,
                        }
                    };
                    Ok((e, height + 1))
                }
                _ => Err(ReachError::UnexpectedToken {
                    offset: t.offset,
                    found: t.kind.describe(),
                    expected: "an atom (`marked`, `enabled`, `forall`, `exists`, `true`, `false`)",
                }),
            },
            ref other => Err(ReachError::UnexpectedToken {
                offset: t.offset,
                found: other.describe(),
                expected: "an atom",
            }),
        }
    }

    /// Parses `( STRING )` or `( IDENT )` after `marked`/`enabled`.
    fn name_arg(&mut self) -> Result<NameRef, ReachError> {
        self.expect(&TokenKind::LParen, "`(`")?;
        let t = self.bump()?.clone();
        let name = match t.kind {
            TokenKind::Str(s) => NameRef::Literal(s),
            TokenKind::Ident(v) => NameRef::Var(v),
            other => {
                return Err(ReachError::UnexpectedToken {
                    offset: t.offset,
                    found: other.describe(),
                    expected: "a quoted name or variable",
                })
            }
        };
        self.expect(&TokenKind::RParen, "`)`")?;
        Ok(name)
    }

    fn ident(&mut self, what: &'static str) -> Result<String, ReachError> {
        let t = self.bump()?.clone();
        match t.kind {
            TokenKind::Ident(s) => Ok(s),
            other => Err(ReachError::UnexpectedToken {
                offset: t.offset,
                found: other.describe(),
                expected: what,
            }),
        }
    }

    fn string(&mut self, what: &'static str) -> Result<String, ReachError> {
        let t = self.bump()?.clone();
        match t.kind {
            TokenKind::Str(s) => Ok(s),
            other => Err(ReachError::UnexpectedToken {
                offset: t.offset,
                found: other.describe(),
                expected: what,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::NameRef;

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        let e = parse(r#"marked("a") | marked("b") & marked("c")"#).unwrap();
        match e {
            Expr::Or(_, rhs) => assert!(matches!(*rhs, Expr::And(_, _))),
            other => panic!("expected Or at the top, got {other:?}"),
        }
    }

    #[test]
    fn implication_is_right_associative() {
        let e = parse(r#"marked("a") -> marked("b") -> marked("c")"#).unwrap();
        match e {
            Expr::Imp(_, rhs) => assert!(matches!(*rhs, Expr::Imp(_, _))),
            other => panic!("expected Imp, got {other:?}"),
        }
    }

    #[test]
    fn parses_quantifiers() {
        let e = parse(r#"forall p in places("Mt_*"): !marked(p)"#).unwrap();
        match e {
            Expr::Forall {
                var,
                set,
                pattern,
                body,
            } => {
                assert_eq!(var, "p");
                assert_eq!(set, SetKind::Places);
                assert_eq!(pattern, "Mt_*");
                assert!(matches!(*body, Expr::Not(_)));
            }
            other => panic!("expected Forall, got {other:?}"),
        }
    }

    #[test]
    fn parses_variables_in_atoms() {
        let e = parse(r#"exists t in transitions("*+"): enabled(t)"#).unwrap();
        match e {
            Expr::Exists { body, .. } => {
                assert_eq!(*body, Expr::Enabled(NameRef::Var("t".into())));
            }
            other => panic!("expected Exists, got {other:?}"),
        }
    }

    #[test]
    fn trailing_tokens_error() {
        let err = parse(r#"true true"#).unwrap_err();
        assert!(matches!(err, ReachError::UnexpectedToken { .. }));
    }

    #[test]
    fn missing_paren_errors() {
        assert!(parse(r#"marked("a""#).is_err());
        assert!(parse(r#"(true"#).is_err());
    }

    fn too_deep() -> Result<Expr, ReachError> {
        Err(ReachError::TooDeep { limit: MAX_DEPTH })
    }

    /// `n` nested parentheses around `true`.
    fn parens(n: usize) -> String {
        format!("{}true{}", "(".repeat(n), ")".repeat(n))
    }

    /// `n` negations of `true`.
    fn bangs(n: usize) -> String {
        format!("{}true", "!".repeat(n))
    }

    /// An `n`-term `true & … & true` chain.
    fn chain(n: usize) -> String {
        vec!["true"; n].join(" & ")
    }

    #[test]
    fn deep_parentheses_are_an_error_not_a_stack_overflow() {
        assert_eq!(parse(&parens(100_000)), too_deep());
    }

    #[test]
    fn deep_negations_are_an_error_not_a_stack_overflow() {
        assert_eq!(parse(&bangs(100_000)), too_deep());
    }

    /// The chain parses iteratively, but into a left-deep tree whose drop,
    /// compilation and evaluation recurse on its length.
    #[test]
    fn long_chains_are_an_error_not_a_stack_overflow() {
        assert_eq!(parse(&chain(100_000)), too_deep());
    }

    /// Every shape exactly at the bound parses, and past it by one level
    /// fails; the deepest trees also compile and evaluate.
    #[test]
    fn nesting_at_the_bound_parses() {
        let net = rap_petri::PetriNet::new();
        let m0 = net.initial_marking();
        let implications = vec!["true"; MAX_DEPTH].join(" -> ");
        for (shape, at_bound, past, value) in [
            ("parens", parens(MAX_DEPTH - 1), parens(MAX_DEPTH), true),
            (
                "bangs",
                bangs(MAX_DEPTH - 1),
                bangs(MAX_DEPTH),
                (MAX_DEPTH - 1).is_multiple_of(2),
            ),
            ("chain", chain(MAX_DEPTH), chain(MAX_DEPTH + 1), true),
            (
                "implications",
                implications.clone(),
                implications + " -> true",
                true,
            ),
        ] {
            let p = crate::Predicate::parse(&at_bound).unwrap_or_else(|e| panic!("{shape}: {e}"));
            assert_eq!(p.compile(&net).unwrap().eval(&net, &m0), value, "{shape}");
            assert_eq!(parse(&past), too_deep(), "{shape}");
        }
    }

    #[test]
    fn double_negation_parses() {
        let e = parse(r#"!!true"#).unwrap();
        assert!(matches!(e, Expr::Not(_)));
    }
}
