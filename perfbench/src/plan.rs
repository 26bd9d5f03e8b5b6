//! The workloads and the seeded inputs of one run.
//!
//! Every workload is a sequence of identical *rounds*: a 10-fact write batch
//! (insert or retract, in the order `generate_corrections` draws them) every
//! round or every few rounds, a few point/narrow lookups each asked `?q-`
//! twice and `?d-` twice (so exactly half of those answers are cache hits),
//! and every few rounds one broad report.  Lookup bodies never repeat within
//! one snapshot version, so the first ask of each is uncached.  The
//! workloads differ in context size, durability, how the batch is sent and
//! the read/write/report weights.  Every workload sends every request class,
//! because every run reports every end-to-end metric.

use ontodq_relational::{Tuple, Value};
use ontodq_workload::{
    generate_corrections, CorrectionOp, CorrectionScale, CorrectionWorkload, HospitalScale,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The write path under load: durable, lock-step batches, set up by a
    /// restart (checkpoint plus WAL tail) on a 6,400-measurement context.
    Corrections,
    /// The read path: in-memory 6,400-measurement context, several
    /// point/narrow lookups per write.
    DoctorReads,
    /// Whole quality versions on a 1,600-measurement context, with the
    /// write batch pipelined the way a loader streams facts.
    QualityReport,
}

/// Facts per write batch.
const BATCH_SIZE: usize = 10;
/// Corrections: batches applied before the checkpoint, and after it (the
/// WAL tail a restart replays).
pub const CHECKPOINT_BATCHES: usize = 20;
pub const TAIL_BATCHES: usize = 20;
/// Upper bound on write batches in one run; the stream is generated this
/// long.
const MAX_WRITES: usize = 1500;

/// The broad reports.  Each answer has hundreds to thousands of rows.
const REPORTS: [&str; 3] = [
    "?q- Measurements(t, p, v).",
    "?q- PatientUnit(Unit_0, d, p).",
    "?- Measurements(t, p, v).",
];

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Corrections,
        Workload::DoctorReads,
        Workload::QualityReport,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Corrections => "corrections",
            Workload::DoctorReads => "doctor_reads",
            Workload::QualityReport => "quality_report",
        }
    }

    /// The server's `--scale`: hundreds of measurements.
    pub fn scale(self) -> usize {
        match self {
            Workload::Corrections | Workload::DoctorReads => 64,
            Workload::QualityReport => 16,
        }
    }

    /// Whether the server runs with `--data-dir` (one fsync per batch).
    pub fn durable(self) -> bool {
        self == Workload::Corrections
    }

    /// Whether a batch's lines are written at once instead of lock-step.
    pub fn pipelined(self) -> bool {
        self == Workload::QualityReport
    }

    /// The reports this workload cycles through.  `?- Measurements` and
    /// `?q- PatientUnit(Unit_0, d, p)` have over 6,000 rows at 6,400
    /// measurements, and whether such an answer waits for a delayed ACK
    /// changes from request to request; the two larger contexts therefore
    /// report the 1,000-row quality version only.
    fn reports(self) -> &'static [&'static str] {
        match self {
            Workload::Corrections | Workload::DoctorReads => &REPORTS[..1],
            Workload::QualityReport => &REPORTS,
        }
    }

    /// Whether each round sends one untimed pacing lookup right after its
    /// write.  A pipelined batch ends in a delayed-ACK stall of about 40 ms
    /// with both processes idle, and the first request after it pays the
    /// virtual machine's vCPU wake-up (0.5–4 ms here), which is the
    /// virtual machine's cost, not the server's.  The lock-step workloads never
    /// send a lookup right after a stalled response.
    fn paced(self) -> bool {
        self == Workload::QualityReport
    }

    /// A write batch every this many rounds, on the round's start.
    pub fn write_every(self) -> usize {
        match self {
            Workload::DoctorReads => 4,
            Workload::Corrections | Workload::QualityReport => 1,
        }
    }

    /// A report every this many rounds, on the round before a write.
    fn report_every(self) -> usize {
        match self {
            Workload::Corrections | Workload::DoctorReads => 4,
            Workload::QualityReport => 1,
        }
    }

    /// Batches applied before the timed phase: the prepared data dir of
    /// `corrections`; none for the cold-registered workloads.
    pub fn prefix(self) -> usize {
        if self.durable() {
            CHECKPOINT_BATCHES + TAIL_BATCHES
        } else {
            0
        }
    }
}

/// One round's requests.
#[derive(Debug, Clone)]
pub struct Round<'a> {
    /// The write batch, on write rounds.
    pub write: Option<&'a CorrectionOp>,
    /// Point/narrow query bodies, distinct within the round.
    pub texts: Vec<String>,
    /// The pacing lookup's body, on paced workloads; distinct from `texts`.
    pub pace: Option<String>,
    /// The broad report line, on report rounds.
    pub report: Option<&'static str>,
}

/// All inputs of one run, a pure function of the workload and the seed.
pub struct Plan {
    pub workload: Workload,
    /// The base hospital (the one the server builds from `--scale`, seed 7)
    /// and the write stream.
    pub stream: CorrectionWorkload,
    /// Point and narrow query bodies (doctor_reads and quality_report), in
    /// the order rounds consume them.
    points: Vec<String>,
    narrows: Vec<String>,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let hospital = HospitalScale::with_measurements(workload.scale() * 100);
        let stream = generate_corrections(&CorrectionScale {
            hospital: hospital.clone(),
            batches: workload.prefix() + MAX_WRITES,
            batch_size: BATCH_SIZE,
            retract_percent: 50,
            seed,
        });
        // Every patient once per cycle, in a seeded order, so every run
        // samples the whole patient population evenly rather than a random
        // draw of it; the bodies have the `generate_queries` point and
        // narrow shapes.
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x5eed));
        let points = shuffled(hospital.patients, &mut rng);
        let narrows = shuffled(hospital.patients, &mut rng);
        let points = points
            .into_iter()
            .map(|p| format!("Measurements(t, p, v), p = \"Patient_{p}\""))
            .collect();
        let narrows = narrows
            .into_iter()
            .map(|p| format!("PatientUnit(Unit_0, d, p), p = \"Patient_{p}\""))
            .collect();
        Self {
            workload,
            stream,
            points,
            narrows,
        }
    }

    /// The write batches applied before the timed phase.
    pub fn prefix_ops(&self) -> &[CorrectionOp] {
        &self.stream.ops[..self.workload.prefix()]
    }

    /// Number of rounds the stream can feed.
    pub fn rounds(&self) -> usize {
        (self.stream.ops.len() - self.workload.prefix()) * self.workload.write_every()
    }

    /// Round `r` (0-based, after the prefix).
    pub fn round(&self, r: usize) -> Round<'_> {
        let every = self.workload.write_every();
        let write = r
            .is_multiple_of(every)
            .then(|| &self.stream.ops[self.workload.prefix() + r / every]);
        let texts = if self.workload == Workload::Corrections {
            // Read back the first two distinct patients the batch touched.
            let write = write.expect("corrections writes every round");
            let mut texts: Vec<String> = Vec::with_capacity(2);
            for (_, fact) in facts_of(write) {
                let text = point_text(fact);
                if !texts.contains(&text) {
                    texts.push(text);
                }
                if texts.len() == 2 {
                    break;
                }
            }
            texts
        } else {
            // Two point bodies and one narrow body, in the same order every
            // round, so each class's samples mix the shapes in a fixed
            // proportion.  The permutations hold hundreds of patients, so a
            // body never comes back within one snapshot version.
            let point = |i: usize| self.points[i % self.points.len()].clone();
            vec![
                point(2 * r),
                self.narrows[r % self.narrows.len()].clone(),
                point(2 * r + 1),
            ]
        };
        let every = self.workload.report_every();
        let reports = self.workload.reports();
        let report = (r % every == every - 1).then(|| reports[(r / every) % reports.len()]);
        // The next round's narrow body: asked here at this round's version,
        // so it never turns a later first ask into a cache hit.
        let pace = self
            .workload
            .paced()
            .then(|| self.narrows[(r + 1) % self.narrows.len()].clone());
        Round {
            write,
            texts,
            pace,
            report,
        }
    }

    /// The instance under assessment after the first `batches` writes.
    pub fn surviving_after(&self, batches: usize) -> ontodq_relational::Database {
        let mut prefix = self.stream.clone();
        prefix.ops.truncate(batches);
        prefix.surviving_instance()
    }
}

/// `0..n` in a seeded random order (Fisher–Yates).
fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

/// The facts of a write batch.
pub fn facts_of(op: &CorrectionOp) -> &[(String, Tuple)] {
    match op {
        CorrectionOp::Insert(facts) | CorrectionOp::Retract(facts) => facts,
    }
}

/// The point lookup of the patient in `fact` (a `Measurements` tuple).
fn point_text(fact: &Tuple) -> String {
    let patient = match fact.values()[1] {
        Value::Str(s) => s.to_string(),
        other => panic!("Measurements patient {other} is not a string"),
    };
    format!("Measurements(t, p, v), p = \"{patient}\"")
}
