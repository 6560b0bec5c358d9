//! Published P-256 point-multiplication known answers, pinned through
//! both scalar multipliers.
//!
//! `Point::mul` sends the generator to the fixed-base table and every
//! other point to the width-5 wNAF multiplier. Each vector below is
//! checked on both routes: `k·G` directly, and `(k/2)·(2G)` with the
//! halving done modulo the group order, which lands on the same point
//! through wNAF. The vectors are the standard NIST P-256 multiples of G.

use blap_crypto::bigint::U256;
use blap_crypto::p256::{field_prime, generator, group_order, Point, Scalar};

fn point(x: &str, y: &str) -> Point {
    Point::Affine {
        x: U256::from_hex(x),
        y: U256::from_hex(y),
    }
}

/// `(k, k·G)` for k = 2, 3 and n − 1.
fn vectors() -> Vec<(U256, Point)> {
    let g = generator();
    let n_minus_1 = group_order().overflowing_sub(U256::ONE).0;
    let minus_g = Point::Affine {
        x: g.x().expect("affine"),
        y: field_prime().overflowing_sub(g.y().expect("affine")).0,
    };
    vec![
        (
            U256::from_u64(2),
            point(
                "7CF27B188D034F7E8A52380304B51AC3C08969E277F21B35A60B48FC47669978",
                "07775510DB8ED040293D9AC69F7430DBBA7DADE63CE982299E04B79D227873D1",
            ),
        ),
        (
            U256::from_u64(3),
            point(
                "5ECBE4D1A6330A44C8F7EF951D4BF165E6C6B721EFADA985FB41661BC6E7FD6C",
                "8734640C4998FF7E374B06CE1A64A2ECD82AB036384FB83D9A79B127A27D5032",
            ),
        ),
        (n_minus_1, minus_g),
    ]
}

#[test]
fn fixed_base_path_matches_published_multiples() {
    for (k, expected) in vectors() {
        let got = generator().mul(&Scalar::from_u256(k));
        assert_eq!(got, expected, "k = {k}");
        assert!(got.is_on_curve(), "k = {k}");
    }
}

#[test]
fn wnaf_path_matches_published_multiples() {
    let n = group_order();
    let half = U256::from_u64(2).inv_mod_prime(n).expect("n is prime");
    let two_g = generator().mul(&Scalar::from_u64(2));
    assert_ne!(two_g, generator(), "2G must take the wNAF route");
    for (k, expected) in vectors() {
        let k_over_2 = Scalar::from_u256(k.mul_mod(half, n));
        assert_eq!(two_g.mul(&k_over_2), expected, "(k/2)·(2G), k = {k}");
    }
}

#[test]
fn wnaf_on_2g_agrees_with_fixed_base_on_2k() {
    let n = group_order();
    let two_g = generator().mul(&Scalar::from_u64(2));
    for (k, _) in vectors() {
        let two_k = Scalar::from_u256(k.add_mod(k, n));
        assert_eq!(
            two_g.mul(&Scalar::from_u256(k)),
            generator().mul(&two_k),
            "k·(2G) vs (2k)·G, k = {k}"
        );
    }
}
