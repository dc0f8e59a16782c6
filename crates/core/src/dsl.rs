//! A small textual DSL for DFS models.
//!
//! The paper's future-work section calls for "a high-level DSL for
//! reconfigurable dataflow graphs"; this module provides a first cut: a
//! line-oriented format that covers the whole model space of the library
//! and round-trips through [`to_text`] / [`parse`].
//!
//! # Format
//!
//! ```text
//! # comment
//! logic    cond   delay=1.5
//! register in     marked delay=1
//! control  ctrl   marked=false
//! push     filt   guard_mode=and
//! pop      out
//! edge in -> cond
//! edge ctrl -> filt !        # trailing `!` marks an inverting arc
//! chain in -> cond -> ctrl   # sugar for consecutive edges
//! ```
//!
//! Attributes: `marked` (plain token), `marked=true|false` (valued token),
//! `delay=<f64>`, `guard_mode=unanimous|and|or`.

use crate::builder::DfsBuilder;
use crate::graph::{Dfs, GuardMode};
use crate::node::{InitialMarking, NodeId, NodeKind, TokenValue};
use crate::DfsError;
use std::collections::HashMap;

/// Parses the textual form into a model.
///
/// # Errors
///
/// [`DfsError::Dsl`] with a line number on malformed input; builder
/// validation errors on structurally invalid models.
pub fn parse(src: &str) -> Result<Dfs, DfsError> {
    let mut b = DfsBuilder::new();
    let mut ids: HashMap<String, NodeId> = HashMap::new();
    let mut edges: Vec<(String, String, bool, usize)> = Vec::new();

    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let mut words = text.split_whitespace();
        let head = words.next().expect("non-empty line");
        match head {
            "logic" | "register" | "control" | "push" | "pop" => {
                let name = words
                    .next()
                    .ok_or_else(|| err(line, "missing node name"))?
                    .to_string();
                let mut delay = 1.0f64;
                let mut marking = InitialMarking::Empty;
                let mut mode = GuardMode::Unanimous;
                for attr in words {
                    if attr == "marked" {
                        marking = InitialMarking::Marked;
                    } else if let Some(v) = attr.strip_prefix("marked=") {
                        let value = match v {
                            "true" => TokenValue::True,
                            "false" => TokenValue::False,
                            other => return Err(err(line, &format!("bad marked value `{other}`"))),
                        };
                        marking = InitialMarking::MarkedWith(value);
                    } else if let Some(v) = attr.strip_prefix("delay=") {
                        delay = v
                            .parse()
                            .map_err(|_| err(line, &format!("bad delay `{v}`")))?;
                    } else if let Some(v) = attr.strip_prefix("guard_mode=") {
                        mode = match v {
                            "unanimous" => GuardMode::Unanimous,
                            "and" => GuardMode::And,
                            "or" => GuardMode::Or,
                            other => return Err(err(line, &format!("bad guard_mode `{other}`"))),
                        };
                    } else {
                        return Err(err(line, &format!("unknown attribute `{attr}`")));
                    }
                }
                let nb = match head {
                    "logic" => b.logic(&name),
                    "register" => b.register(&name),
                    "control" => b.control(&name),
                    "push" => b.push(&name),
                    _ => b.pop(&name),
                };
                let nb = nb.delay(delay).guard_mode(mode);
                let id = match marking {
                    InitialMarking::Empty => nb.build(),
                    InitialMarking::Marked => nb.marked().build(),
                    InitialMarking::MarkedWith(v) => nb.marked_with(v).build(),
                };
                ids.insert(name, id);
            }
            "edge" | "chain" => {
                let rest: Vec<&str> = text[head.len()..].trim().split("->").collect();
                if rest.len() < 2 {
                    return Err(err(line, "expected `a -> b`"));
                }
                for pair in rest.windows(2) {
                    let from = pair[0].trim().trim_end_matches('!').trim();
                    let to_raw = pair[1].trim();
                    let (to, inverted) = match to_raw.strip_suffix('!') {
                        Some(t) => (t.trim(), true),
                        None => (to_raw, false),
                    };
                    if from.is_empty() || to.is_empty() {
                        return Err(err(line, "empty endpoint"));
                    }
                    edges.push((from.to_string(), to.to_string(), inverted, line));
                }
            }
            other => return Err(err(line, &format!("unknown directive `{other}`"))),
        }
    }

    for (from, to, inverted, line) in edges {
        let &f = ids
            .get(&from)
            .ok_or_else(|| err(line, &format!("unknown node `{from}`")))?;
        let &t = ids
            .get(&to)
            .ok_or_else(|| err(line, &format!("unknown node `{to}`")))?;
        if inverted {
            b.connect_inverted(f, t);
        } else {
            b.connect(f, t);
        }
    }
    b.finish()
}

fn err(line: usize, message: &str) -> DfsError {
    DfsError::Dsl {
        line,
        message: message.to_string(),
    }
}

/// Renders a model back to the DSL (parse ∘ `to_text` = identity up to
/// formatting).
#[must_use]
pub fn to_text(dfs: &Dfs) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for n in dfs.nodes() {
        let node = dfs.node(n);
        let kind = match node.kind {
            NodeKind::Logic => "logic",
            NodeKind::Register => "register",
            NodeKind::Control => "control",
            NodeKind::Push => "push",
            NodeKind::Pop => "pop",
        };
        let _ = write!(out, "{kind} {}", node.name);
        match node.initial {
            InitialMarking::Empty => {}
            InitialMarking::Marked => out.push_str(" marked"),
            InitialMarking::MarkedWith(TokenValue::True) => out.push_str(" marked=true"),
            InitialMarking::MarkedWith(TokenValue::False) => out.push_str(" marked=false"),
        }
        if (node.delay - 1.0).abs() > f64::EPSILON {
            let _ = write!(out, " delay={}", node.delay);
        }
        match dfs.guard_mode(n) {
            GuardMode::Unanimous => {}
            GuardMode::And => out.push_str(" guard_mode=and"),
            GuardMode::Or => out.push_str(" guard_mode=or"),
        }
        out.push('\n');
    }
    for n in dfs.nodes() {
        for e in dfs.succs(n) {
            let bang = if e.inverted { " !" } else { "" };
            let _ = writeln!(
                out,
                "edge {} -> {}{bang}",
                dfs.node(n).name,
                dfs.node(e.node).name
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1B: &str = r#"
# Fig. 1b: conditional computation
register in marked
logic    cond delay=1
control  ctrl
push     filt
register comp delay=3
pop      out
chain in -> cond -> ctrl
edge in -> filt
edge ctrl -> filt
chain filt -> comp -> out
edge ctrl -> out
edge out -> in
"#;

    #[test]
    fn parses_fig1b() {
        let dfs = parse(FIG1B).unwrap();
        assert_eq!(dfs.node_count(), 6);
        let filt = dfs.node_by_name("filt").unwrap();
        assert_eq!(dfs.kind(filt), NodeKind::Push);
        assert_eq!(dfs.guards(filt).len(), 1);
        let comp = dfs.node_by_name("comp").unwrap();
        assert_eq!(dfs.node(comp).delay, 3.0);
    }

    #[test]
    fn roundtrips_through_text() {
        let dfs = parse(FIG1B).unwrap();
        let text = to_text(&dfs);
        let again = parse(&text).unwrap();
        assert_eq!(dfs.node_count(), again.node_count());
        assert_eq!(dfs.edge_count(), again.edge_count());
        for n in dfs.nodes() {
            let node = dfs.node(n);
            let m = again.node_by_name(&node.name).unwrap();
            assert_eq!(again.kind(m), node.kind);
            assert_eq!(again.node(m).initial, node.initial);
        }
    }

    #[test]
    fn inverted_edges_roundtrip() {
        let src = "control c marked=true\npush p\nregister r marked\nedge r -> p\nedge c -> p !\n";
        let dfs = parse(src).unwrap();
        let p = dfs.node_by_name("p").unwrap();
        assert!(dfs.guards(p)[0].inverted);
        let again = parse(&to_text(&dfs)).unwrap();
        let p2 = again.node_by_name("p").unwrap();
        assert!(again.guards(p2)[0].inverted);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("register a\nbogus b\n").unwrap_err();
        assert!(matches!(e, DfsError::Dsl { line: 2, .. }), "{e}");
        let e = parse("edge a -> b").unwrap_err();
        assert!(matches!(e, DfsError::Dsl { line: 1, .. }));
        let e = parse("register a delay=xyz").unwrap_err();
        assert!(matches!(e, DfsError::Dsl { line: 1, .. }));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let dfs = parse("# nothing\n\nregister a marked # trailing\n").unwrap();
        assert_eq!(dfs.node_count(), 1);
    }

    /// The DSL's own tokens mixed with arbitrary ASCII.
    fn token_soup() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        const TOKENS: &[&str] = &[
            "logic",
            "register",
            "control",
            "push",
            "pop",
            "edge",
            "chain",
            "a",
            "b",
            "c",
            "->",
            "!",
            "#",
            "marked",
            "marked=true",
            "marked=false",
            "delay=1.5",
            "delay=-1",
            "delay=NaN",
            "guard_mode=and",
            "guard_mode=or",
            "guard_mode=unanimous",
            " ",
            "\n",
        ];
        proptest::collection::vec((any::<bool>(), 0..TOKENS.len(), 0u8..128), 0..48).prop_map(
            |pieces| {
                pieces
                    .into_iter()
                    .map(|(token, i, c)| {
                        if token {
                            TOKENS[i].to_string()
                        } else {
                            char::from(c).to_string()
                        }
                    })
                    .collect()
            },
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2_000))]

        /// Token soup parses to a model or a typed error, never a panic.
        #[test]
        fn token_soup_never_panics(src in token_soup()) {
            let _ = parse(&src);
        }

        /// So do arbitrary bytes, decoded lossily.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96)) {
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }
    }
}
