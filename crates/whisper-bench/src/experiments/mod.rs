//! One module per paper table/figure; each exposes `run(params)`, which
//! returns the result, a `print` method on that result, and a `Params`
//! type with `paper()` (full scale) and `quick()` (smoke test)
//! constructors. The binaries in `src/bin/` are thin wrappers.

pub mod ablation_cb_size;
pub mod ablation_path_length;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod lifecycle;
pub mod table1;
pub mod table2;

/// Reads `--quick` from the process arguments.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Reads a `--flag N` or `--flag=N` numeric argument from the process
/// arguments (e.g. `--seed 11`, `--seed=11`).
pub fn arg_value(flag: &str) -> Option<usize> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next()?.parse().ok();
        }
        if let Some(v) = a.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
            return v.parse().ok();
        }
    }
    None
}
