//! Protocol literals for generated facts.
//!
//! `Tuple`'s `Display` is not protocol syntax: times lose their `@`,
//! strings lose their quotes, and whole-valued doubles print as integers
//! (`38.0` → `38`), which re-parse as `Int` and name a different fact.  The
//! benchmark therefore renders every fact it sends with [`fact_line`], whose
//! output `parse_facts` maps back to the very same tuple (checked for every
//! fact of every workload by the tests below).

use ontodq_relational::{Tuple, Value};
use std::fmt::Write;

/// One value in the line protocol's constant syntax.
///
/// # Panics
/// On a labeled null or a non-finite double: neither has a protocol
/// spelling, and no generated fact holds one.
fn value_literal(value: &Value) -> String {
    match value {
        Value::Str(s) => {
            let text = s.to_string();
            assert!(
                !text.contains('"'),
                "string constant {text:?} cannot be quoted"
            );
            format!("\"{text}\"")
        }
        Value::Int(i) => i.to_string(),
        // `{:?}` is the shortest text that parses back to the same bits and
        // always carries a `.` or an exponent; the parser takes no exponent.
        Value::Double(d) => {
            let text = format!("{d:?}");
            assert!(
                d.is_finite() && !text.contains(['e', 'E']),
                "double {d} has no protocol spelling"
            );
            text
        }
        Value::Bool(b) => b.to_string(),
        Value::Time(t) => format!("@{}", Value::format_time(*t)),
        Value::Null(n) => panic!("labeled null {n} has no protocol spelling"),
    }
}

/// `Pred(c1, …, cn).` — the text after a `+` or `-`.
pub fn fact_literal(predicate: &str, tuple: &Tuple) -> String {
    let mut out = String::with_capacity(64);
    out.push_str(predicate);
    out.push('(');
    for (i, value) in tuple.values().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&value_literal(value));
    }
    out.push_str(").");
    out
}

/// A whole protocol line: `+Pred(…).` or `-Pred(…).`, newline included.
pub fn fact_line(sign: char, predicate: &str, tuple: &Tuple) -> String {
    let mut line = String::with_capacity(72);
    let _ = write!(line, "{sign}{}", fact_literal(predicate, tuple));
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Plan, Workload};
    use ontodq_server::protocol::{parse_facts, parse_request, Request};
    use ontodq_workload::CorrectionOp;

    fn round_trip(predicate: &str, tuple: &Tuple) {
        let line = fact_line('+', predicate, tuple);
        let text = match parse_request(&line) {
            Ok(Request::InsertFact(text)) => text,
            other => panic!("{line:?} parsed as {other:?}"),
        };
        let facts = parse_facts(&text).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        assert_eq!(
            facts,
            vec![(predicate.to_string(), tuple.clone())],
            "{line:?}"
        );
    }

    /// Every fact a workload can send — the base hospital the client keeps
    /// in its model and every batch of the write stream — comes back from
    /// `parse_facts` as the same tuple.
    #[test]
    fn every_fact_of_every_workload_round_trips() {
        for workload in Workload::ALL {
            for seed in [1, 2] {
                let plan = Plan::new(workload, seed);
                let base = &plan.stream.base.instance;
                for tuple in base.relation("Measurements").unwrap().iter() {
                    round_trip("Measurements", &tuple);
                }
                for op in &plan.stream.ops {
                    let (CorrectionOp::Insert(facts) | CorrectionOp::Retract(facts)) = op;
                    for (predicate, tuple) in facts {
                        round_trip(predicate, tuple);
                    }
                }
            }
        }
    }

    /// The failure the renderer exists for: `Display` turns a whole-valued
    /// double into an integer literal, which is a different fact.
    #[test]
    fn display_is_not_a_protocol_literal() {
        let tuple = Tuple::new(vec![
            Value::time(600),
            Value::str("Patient_1"),
            Value::double(38.0),
        ]);
        assert_eq!(tuple.to_string(), "(Jan/1-10:00, Patient_1, 38)");
        assert_eq!(
            fact_literal("Measurements", &tuple),
            "Measurements(@Jan/1-10:00, \"Patient_1\", 38.0)."
        );
        round_trip("Measurements", &tuple);
        let displayed = format!("Measurements{tuple}.").replace("Jan", "@Jan");
        let reparsed = parse_facts(&displayed).unwrap();
        assert_ne!(reparsed[0].1, tuple);
    }
}
