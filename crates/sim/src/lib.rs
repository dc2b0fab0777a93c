//! The m-dipole job runner: how a run of the paper's benchmark physics
//! steps, in one crate below both of its callers.
//!
//! `pic-bench` times these runs to print the paper's tables; `pic-serve`
//! runs them as jobs. Neither owns the runner, so the service does not
//! link the paper harness, and `pic-analyze`'s one-clock rule covers the
//! code every served job runs.
//!
//! | Module        | Holds                                                          |
//! |---------------|----------------------------------------------------------------|
//! | `scenario`    | the field, the time step and the seeded ensemble builders (§5.2) |
//! | `run`         | the host step runner over a chosen schedule and kernel variant |
//! | `device_run`  | the same steps through the modeled device backend               |
//! | `subject`     | a run's record identity and the model half derived from it      |

#![warn(missing_docs)]

pub mod device_run;
pub mod run;
pub mod scenario;
pub mod subject;

pub use device_run::{gpu_model_of, precision_of, run_device_steps, DeviceRun};
pub use run::{merge_thread_stats, run_mdipole_steps, KernelVariant, MdipoleRun, MdipoleScenario};
pub use scenario::{
    append_ensemble_range, bench_dt, build_ensemble, build_ensemble_range, dipole_wave, time_after,
    SETUP_PART_ROWS,
};
pub use subject::{parallelization_of, RecordSubject};
