//! The client's own model of the served answers.
//!
//! It tracks which `Measurements` facts are live and computes the quality
//! version `Measurements_q` with a plain-Rust join over the generated
//! dimension data, using no ontodq evaluation code: a measurement is a
//! quality measurement when its time is a member of the `Time` dimension
//! (so `DayTime` links it to a day), its patient is in a `Unit_0` ward on
//! that day (`PatientUnit(Unit_0, d, p)`, which makes `TakenWithTherm` hold
//! with B1), and `Unit_0`'s nurse that day is certified (`TakenByNurse`
//! with `y = "cert."`).

use ontodq_relational::{Tuple, Value};
use ontodq_workload::ScaledHospital;
use std::collections::{BTreeSet, HashMap, HashSet};

const QUALITY_UNIT: &str = "Unit_0";

pub struct Model {
    /// Live `Measurements`, by patient.
    live: HashMap<Value, HashSet<Tuple>>,
    live_count: usize,
    /// `DayTime`: time member → day member.
    day_of_time: HashMap<Value, Value>,
    /// `(day, patient)` pairs of `PatientUnit(Unit_0, d, p)`.
    quality_unit: BTreeSet<(Value, Value)>,
    /// Days on which `Unit_0`'s nurse is certified.
    certified_days: HashSet<Value>,
}

impl Model {
    pub fn new(hospital: &ScaledHospital) -> Self {
        let ontology = &hospital.ontology;
        let unit_of_ward: HashMap<Value, Value> = ontology
            .dimension("Hospital")
            .expect("the scaled hospital has a Hospital dimension")
            .rollup_pairs("Ward", "Unit")
            .into_iter()
            .collect();
        let day_of_time: HashMap<Value, Value> = ontology
            .dimension("Time")
            .expect("the scaled hospital has a Time dimension")
            .rollup_pairs("Time", "Day")
            .into_iter()
            .collect();
        let unit0 = Value::str(QUALITY_UNIT);
        let data = ontology.data();
        let mut quality_unit = BTreeSet::new();
        for row in data.relation("PatientWard").expect("PatientWard").iter() {
            let [ward, day, patient] = row.values() else {
                panic!("PatientWard row {row} is not ternary")
            };
            if unit_of_ward.get(ward) == Some(&unit0) {
                quality_unit.insert((*day, *patient));
            }
        }
        let certified = Value::str("cert.");
        let mut certified_days = HashSet::new();
        for row in data
            .relation("WorkingSchedules")
            .expect("WorkingSchedules")
            .iter()
        {
            let [unit, day, _nurse, status] = row.values() else {
                panic!("WorkingSchedules row {row} is not 4-ary")
            };
            if *unit == unit0 && *status == certified {
                certified_days.insert(*day);
            }
        }
        let mut model = Self {
            live: HashMap::new(),
            live_count: 0,
            day_of_time,
            quality_unit,
            certified_days,
        };
        let base = hospital
            .instance
            .relation("Measurements")
            .expect("Measurements");
        for tuple in base.iter() {
            model.insert(tuple);
        }
        model
    }

    pub fn insert(&mut self, tuple: Tuple) -> bool {
        let fresh = self
            .live
            .entry(tuple.values()[1])
            .or_default()
            .insert(tuple);
        self.live_count += usize::from(fresh);
        fresh
    }

    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        let gone = self
            .live
            .get_mut(&tuple.values()[1])
            .is_some_and(|facts| facts.remove(tuple));
        self.live_count -= usize::from(gone);
        gone
    }

    pub fn live_count(&self) -> usize {
        self.live_count
    }

    fn is_quality(&self, tuple: &Tuple) -> bool {
        let [time, patient, _] = tuple.values() else {
            return false;
        };
        self.day_of_time.get(time).is_some_and(|day| {
            self.certified_days.contains(day) && self.quality_unit.contains(&(*day, *patient))
        })
    }

    /// The expected answer lines of a point/narrow body or a report line,
    /// rendered the way the server prints answers (`Tuple`'s `Display`),
    /// sorted.
    pub fn expected(&self, query: &Query) -> Vec<String> {
        let mut lines: Vec<String> = match query {
            Query::QualityPoint(patient) => self
                .live
                .get(patient)
                .into_iter()
                .flatten()
                .filter(|t| self.is_quality(t))
                .map(Tuple::to_string)
                .collect(),
            Query::QualityUnitPoint(patient) => self
                .quality_unit
                .iter()
                .filter(|(_, p)| p == patient)
                .map(|(d, p)| Tuple::new(vec![*d, *p]).to_string())
                .collect(),
            Query::QualityAll => self
                .live_facts()
                .filter(|t| self.is_quality(t))
                .map(Tuple::to_string)
                .collect(),
            Query::QualityUnitAll => self
                .quality_unit
                .iter()
                .map(|(d, p)| Tuple::new(vec![*d, *p]).to_string())
                .collect(),
            Query::PlainAll => self.live_facts().map(|t| t.to_string()).collect(),
        };
        lines.sort_unstable();
        lines
    }

    fn live_facts(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.live.values().flatten()
    }
}

/// The query shapes the workloads send, as the model understands them.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `Measurements(t, p, v), p = "P"` under `?q-`/`?d-`.
    QualityPoint(Value),
    /// `PatientUnit(Unit_0, d, p), p = "P"` under `?q-`/`?d-`.
    QualityUnitPoint(Value),
    /// `?q- Measurements(t, p, v).`
    QualityAll,
    /// `?q- PatientUnit(Unit_0, d, p).`
    QualityUnitAll,
    /// `?- Measurements(t, p, v).`
    PlainAll,
}

impl Query {
    /// Classify a point/narrow body generated by the plan.
    pub fn of_text(text: &str) -> Self {
        let patient = text
            .split('"')
            .nth(1)
            .unwrap_or_else(|| panic!("query text {text:?} names no patient"));
        if text.starts_with("Measurements(") {
            Query::QualityPoint(Value::str(patient))
        } else if text.starts_with("PatientUnit(") {
            Query::QualityUnitPoint(Value::str(patient))
        } else {
            panic!("unexpected query text {text:?}")
        }
    }

    /// Classify a report line.
    pub fn of_report(line: &str) -> Self {
        match line {
            "?q- Measurements(t, p, v)." => Query::QualityAll,
            "?q- PatientUnit(Unit_0, d, p)." => Query::QualityUnitAll,
            "?- Measurements(t, p, v)." => Query::PlainAll,
            other => panic!("unexpected report {other:?}"),
        }
    }
}
