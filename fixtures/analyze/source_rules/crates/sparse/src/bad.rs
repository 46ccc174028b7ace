//! Seeded violations for the token-stream source rules.

/// Rule needles inside strings and comments must stay silent:
/// unsafe { x.unwrap() } panic!("boom") println!("decoy")
pub const DECOY: &str = "unsafe { x.unwrap() } panic!(\"boom\") todo!()";

/// Seeded `.unwrap()` and `.expect()` call sites.
pub fn calls(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect("fixture");
    a + b
}

/// Seeded macro calls.
pub fn macros() {
    println!("fixture");
    panic!("fixture");
    todo!()
}

/// Seeded `unsafe`: the token rule fires on the keyword itself.
pub unsafe fn danger() {}

/// Seeded trace-buffer idioms.
pub fn buffers(accesses: Vec<Access>) -> usize {
    let trace = collect_trace(&accesses);
    accesses.len() + trace
}
