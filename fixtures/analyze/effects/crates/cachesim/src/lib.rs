//! Fixture: interprocedural effect inference — every effect source
//! sits one call away from its seed, so the lexical passes stay
//! silent and only the propagated `XT10xx` rules fire. The one
//! exception is `worker::checked_slot`, which pins the worker-path
//! rules (`XT0904`/`XT0905`) outside the engine crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod render;
pub mod sim;
pub mod store;
pub mod worker;
