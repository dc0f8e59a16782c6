//! Property tests: the `Display` form of any predicate re-parses to an
//! equivalent predicate, evaluation respects Boolean algebra, and no input
//! makes the parser panic.

use proptest::prelude::*;
use rap_petri::PetriNet;
use rap_reach::{Expr, Predicate};

/// Strategy for random predicates over a fixed set of place/transition
/// names.
fn arb_expr() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("true".to_string()),
        Just("false".to_string()),
        (0usize..4).prop_map(|i| format!("marked(\"p{i}\")")),
        (0usize..2).prop_map(|i| format!("enabled(\"t{i}\")")),
        Just("forall q in places(\"p*\"): marked(q)".to_string()),
        Just("exists q in places(\"p?\"): !marked(q)".to_string()),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} & {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} | {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} ^ {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} -> {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} <-> {b})")),
            inner.prop_map(|a| format!("!{a}")),
        ]
    })
}

/// The grammar's own tokens mixed with arbitrary ASCII.
fn token_soup() -> impl Strategy<Value = String> {
    const TOKENS: &[&str] = &[
        "marked",
        "enabled",
        "forall",
        "exists",
        "in",
        "places",
        "transitions",
        "true",
        "false",
        "p",
        "(",
        ")",
        "\"p0\"",
        "\"t*\"",
        "\"",
        "&",
        "|",
        "^",
        "!",
        "->",
        "<->",
        ":",
        " ",
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

/// Parses `src` and, when it parses, compiles and evaluates it on the demo
/// net: every step returns a value or a typed error.
fn parse_compile_eval(src: &str) {
    if let Ok(p) = Predicate::parse(src) {
        let net = demo_net();
        if let Ok(c) = p.compile(&net) {
            let _ = c.eval(&net, &net.initial_marking());
        }
    }
}

fn demo_net() -> PetriNet {
    let mut net = PetriNet::new();
    let p0 = net.add_place("p0", true);
    net.add_place("p1", false);
    net.add_place("p2", true);
    net.add_place("p3", false);
    let t0 = net.add_transition("t0");
    net.read(t0, p0);
    let t1 = net.add_transition("t1");
    net.consume(t1, p0);
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// parse → Display → parse is a fixpoint, and both parses evaluate
    /// identically.
    #[test]
    fn display_reparses_equivalently(src in arb_expr()) {
        let net = demo_net();
        let p1 = Predicate::parse(&src).expect("generated source parses");
        let rendered = p1.to_string();
        let p2 = Predicate::parse(&rendered).expect("rendered form parses");
        // second render must be a fixpoint
        prop_assert_eq!(&rendered, &p2.to_string());
        let m = net.initial_marking();
        let v1 = p1.compile(&net).unwrap().eval(&net, &m);
        let v2 = p2.compile(&net).unwrap().eval(&net, &m);
        prop_assert_eq!(v1, v2);
    }

    /// De Morgan / implication identities hold under evaluation.
    #[test]
    fn boolean_identities(a in arb_expr(), b in arb_expr()) {
        let net = demo_net();
        let m = net.initial_marking();
        let eval = |src: &str| {
            Predicate::parse(src)
                .unwrap()
                .compile(&net)
                .unwrap()
                .eval(&net, &m)
        };
        prop_assert_eq!(
            eval(&format!("!({a} & {b})")),
            eval(&format!("(!{a} | !{b})"))
        );
        prop_assert_eq!(
            eval(&format!("({a} -> {b})")),
            eval(&format!("(!{a} | {b})"))
        );
        prop_assert_eq!(
            eval(&format!("({a} <-> {b})")),
            eval(&format!("!({a} ^ {b})"))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Token soup never panics the parser.
    #[test]
    fn token_soup_never_panics(src in token_soup()) {
        parse_compile_eval(&src);
    }

    /// Neither do arbitrary bytes, decoded lossily.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        parse_compile_eval(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn ast_is_inspectable() {
    let p = Predicate::parse("marked(\"p0\") & true").unwrap();
    // the AST type is exported for tooling
    let rendered = p.to_string();
    assert!(rendered.contains("marked"));
    let _: fn(&Expr) = |_| {};
}
