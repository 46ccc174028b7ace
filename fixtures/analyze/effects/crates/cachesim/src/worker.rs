//! Worker-path helper outside the engine crate: the `unwrap`/`expect`
//! and indexing rules apply here, where the engine exemption of the
//! panic-macro and lock rules must not reach.

/// Looks up the job's slot, trusting its input three ways: an
/// `expect`, a slice index and a `panic!`.
pub fn checked_slot(j: u32) -> u32 {
    let slots = [1u32, 2, 3, 4];
    let i = usize::try_from(j).expect("job ids fit in usize");
    if slots[i % 4] == 0 {
        panic!("empty slot");
    }
    j
}
