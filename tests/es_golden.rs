//! Golden outputs of Exhaustive Search.
//!
//! `tests/beam_width.rs` pins unbounded beam ≡ ES, which holds by
//! construction once both run the same generation loop. This test pins
//! ES itself: on Fig. 1 and the smoke seeds it fixes the best cost's bit
//! pattern, the winning signature, the visited-state count, the
//! deterministic `counters_json()` projection and the trace events. The
//! expected text lives in `tests/golden/es_outputs.txt`; a mismatch
//! prints the whole rendering so a deliberate change can be reviewed and
//! pasted back.

use etlopt::conformance::SMOKE_SEEDS;
use etlopt::core::opt::SearchBudget;
use etlopt::core::trace::RingSink;
use etlopt::prelude::*;
use etlopt::workload::{scenarios, Generator, GeneratorConfig, SizeCategory};

const GOLDEN: &str = include_str!("golden/es_outputs.txt");

fn render(name: &str, es: &ExhaustiveSearch, wf: &etlopt::core::workflow::Workflow) -> String {
    let model = RowCountModel::default();
    let sink = RingSink::new(100_000);
    let out = es.run_traced(wf, &model, &sink).unwrap();
    let mut s = format!(
        "== {name}\nbest_cost_bits {:#018x}\nsignature {}\nvisited_states {}\n",
        out.best_cost.to_bits(),
        out.best.signature(),
        out.visited_states
    );
    for event in sink.drain() {
        s.push_str(&format!("event {event}\n"));
    }
    s.push_str(&out.stats.counters_json());
    s.push('\n');
    s
}

fn small(seed: u64) -> etlopt::core::workflow::Workflow {
    Generator::generate(GeneratorConfig {
        seed,
        category: SizeCategory::Small,
    })
    .workflow
}

#[test]
fn es_outputs_match_the_golden_file() {
    let mut actual = render("fig1", &ExhaustiveSearch::new(), &scenarios::fig1());
    for &seed in &SMOKE_SEEDS {
        let es = ExhaustiveSearch::with_budget(SearchBudget::states(4_000));
        actual.push_str(&render(&format!("small seed {seed}"), &es, &small(seed)));
    }
    // A binding state budget stops the merge mid-generation.
    let capped = ExhaustiveSearch::with_budget(SearchBudget::states(250));
    actual.push_str(&render("small seed 2, 250 states", &capped, &small(2)));

    if actual != GOLDEN {
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "ES output diverged from tests/golden/es_outputs.txt at line {}\n\
             ----- actual -----\n{actual}----- end -----",
            first + 1
        );
    }
}
