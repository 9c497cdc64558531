//! `admitbench`: the open-loop churn benchmark of the OffloaDNN admission
//! tiers. See `README.md` in this directory for the workloads, the
//! metrics and what each per-layer metric is expected to move.

pub mod bench;
pub mod driver;
pub mod json;
pub mod replay;
pub mod sys;
pub mod workload;
