//! Allocation accounting for P-256 scalar multiplication.
//!
//! Every simulated Secure Simple Pairing performs two key generations and
//! two ECDHs. Once the process-wide generator table exists, both must run
//! entirely on the stack: the wNAF digits, the odd-multiples table and its
//! batched normalization are fixed-size arrays. These tests pin that with
//! the shared counting allocator from `blap_obs::prof` (feature
//! `prof-alloc`), the same discipline `alloc_ccm.rs` enforces for CCM.

use blap_crypto::p256::{KeyPair, Scalar};
use blap_obs::prof;

#[global_allocator]
static GLOBAL: prof::CountingAlloc = prof::CountingAlloc;

/// The exact-count assertions below read process-wide counters, so the
/// tests in this binary must not allocate concurrently with each other's
/// measurement windows.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Minimum allocation count over several windows: the libtest coordinator
/// thread can allocate concurrently with one window, but not with all of
/// them. A genuinely allocation-free call shows at least one clean
/// window; a per-call allocation never does.
fn min_allocations_during(mut f: impl FnMut()) -> usize {
    (0..5)
        .map(|_| {
            let (count, _bytes) = prof::allocations_during(&mut f);
            count as usize
        })
        .min()
        .expect("non-empty window set")
}

/// Builds the generator table, the one allocation P-256 ever makes.
fn force_generator_table() {
    KeyPair::from_secret(Scalar::from_u64(1)).expect("nonzero secret");
}

#[test]
fn keygen_is_zero_alloc() {
    let _serial = SERIAL.lock().unwrap();
    force_generator_table();
    let count = min_allocations_during(|| {
        for i in 1..=8u8 {
            let kp = KeyPair::from_rng_bytes([i; 32]).expect("nonzero secret");
            std::hint::black_box(kp);
        }
    });
    assert_eq!(
        count, 0,
        "KeyPair::from_secret must not allocate, got {count}"
    );
}

#[test]
fn ecdh_is_zero_alloc() {
    let _serial = SERIAL.lock().unwrap();
    force_generator_table();
    let ours = KeyPair::from_rng_bytes([0x42; 32]).expect("nonzero secret");
    let peer = KeyPair::from_rng_bytes([0x17; 32]).expect("nonzero secret");
    let count = min_allocations_during(|| {
        for _ in 0..4 {
            let shared = ours.diffie_hellman(&peer.public()).expect("valid peer");
            std::hint::black_box(shared);
        }
    });
    assert_eq!(
        count, 0,
        "KeyPair::diffie_hellman must not allocate, got {count}"
    );
}
