//! Runs every table/figure experiment in sequence, producing the full
//! output recorded in `EXPERIMENTS.md`. Pass `--quick` for the
//! smoke-test variants.

use whisper_bench::experiments::{self, *};

fn main() {
    let quick = experiments::quick_flag();
    macro_rules! go {
        ($m:ident) => {
            if quick {
                $m::run(&$m::Params::quick())
            } else {
                $m::run(&$m::Params::paper())
            }
        };
    }
    go!(fig5);
    go!(fig6);
    go!(table1);
    go!(fig7);
    go!(table2);
    go!(fig8).print();
    go!(fig9);
    go!(ablation_path_length);
    go!(ablation_cb_size);
}
