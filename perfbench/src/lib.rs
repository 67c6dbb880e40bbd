//! Statistics and span recording for the Clara benchmark (`perfbench`).
//! The binary in `main.rs` drives the daemon and trainer; this library
//! holds the parts its own tests pin.

pub mod spans;
pub mod stats;
