//! NIST P-256 (secp256r1) elliptic-curve Diffie-Hellman.
//!
//! Secure Simple Pairing's Authentication Stage 1 exchanges P-256 public
//! keys (P-192 for pre-4.1 devices); the shared secret `DHKey` feeds the
//! `f2` link-key derivation. This module implements the curve from its
//! domain parameters: a Montgomery field, Jacobian-coordinate group
//! arithmetic, windowed-NAF scalar multiplication (with a precomputed
//! fixed-base table for the generator), and public-key validation (the
//! check whose absence enabled the Biham–Neumann invalid-curve attack cited
//! by the paper).
//!
//! Field elements are four `u64` limbs holding `a·R mod p`, `R = 2^256`,
//! fully reduced, as in fiat-crypto (Erbsen et al., IEEE S&P 2019). Since
//! `p ≡ −1 (mod 2^64)` the Montgomery constant `−p⁻¹ mod 2^64` is 1, so
//! each of the four reduction rounds is one multiply-accumulate on limb 1
//! and one on limb 3. Add and subtract fix up with a borrow mask, and
//! inversion follows the P-256 addition chain for `p − 2` (255 squarings,
//! 12 multiplications). Points and both precomputed tables stay in
//! Montgomery form; values convert only at the public [`Point`]/[`U256`]
//! boundary, and scalar multiplication allocates nothing once the generator
//! table exists.
//!
//! The field is property-tested against the binary long division and
//! Fermat inversion in [`crate::bigint`], both multipliers against the
//! retained [`Point::mul_double_and_add`] reference, and published
//! multiples of `G` are pinned.

use std::fmt;
use std::sync::OnceLock;

use crate::bigint::U256;

/// The field prime `p = 2^256 − 2^224 + 2^192 + 2^96 − 1` as limbs.
const P: [u64; 4] = [u64::MAX, 0xffff_ffff, 0, 0xffff_ffff_0000_0001];
const N: U256 = U256::from_limbs([
    0xf3b9_cac2_fc63_2551,
    0xbce6_faad_a717_9e84,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_0000_0000,
]);
const B: U256 = U256::from_limbs([
    0x3bce_3c3e_27d2_604b,
    0x651d_06b0_cc53_b0f6,
    0xb3eb_bd55_7698_86bc,
    0x5ac6_35d8_aa3a_93e7,
]);
const GX: U256 = U256::from_limbs([
    0xf4a1_3945_d898_c296,
    0x7703_7d81_2deb_33a0,
    0xf8bc_e6e5_63a4_40f2,
    0x6b17_d1f2_e12c_4247,
]);
const GY: U256 = U256::from_limbs([
    0xcbb6_4068_37bf_51f5,
    0x2bce_3357_6b31_5ece,
    0x8ee7_eb4a_7c0f_9e16,
    0x4fe3_42e2_fe1a_7f9b,
]);

/// The field prime `p = 2^256 - 2^224 + 2^192 + 2^96 - 1`.
pub fn field_prime() -> U256 {
    U256::from_limbs(P)
}

/// The group order `n`.
pub fn group_order() -> U256 {
    N
}

/// The base point `G`.
pub fn generator() -> Point {
    Point::Affine { x: GX, y: GY }
}

// --- field arithmetic ------------------------------------------------------

/// `a + b + carry` as (low limb, carry out).
#[inline(always)]
const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let wide = a as u128 + b as u128 + carry as u128;
    (wide as u64, (wide >> 64) as u64)
}

/// `a − b − borrow` as (low limb, borrow out). Borrows travel as masks:
/// 0 or all ones, so the result can gate a conditional add directly.
#[inline(always)]
const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let wide = (a as u128).wrapping_sub(b as u128 + (borrow >> 63) as u128);
    (wide as u64, (wide >> 64) as u64)
}

/// `a + b·c + carry` as (low limb, carry out); cannot overflow 128 bits.
#[inline(always)]
const fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let wide = a as u128 + b as u128 * c as u128 + carry as u128;
    (wide as u64, (wide >> 64) as u64)
}

#[inline(always)]
fn add_limbs(a: [u64; 4], b: [u64; 4]) -> ([u64; 4], u64) {
    let mut out = [0u64; 4];
    let mut carry = 0;
    for i in 0..4 {
        (out[i], carry) = adc(a[i], b[i], carry);
    }
    (out, carry)
}

#[inline(always)]
fn sub_limbs(a: [u64; 4], b: [u64; 4]) -> ([u64; 4], u64) {
    let mut out = [0u64; 4];
    let mut borrow = 0;
    for i in 0..4 {
        (out[i], borrow) = sbb(a[i], b[i], borrow);
    }
    (out, borrow)
}

/// Adds `p` where `mask` is all ones, nothing where it is zero.
#[inline(always)]
fn add_p_masked(a: [u64; 4], mask: u64) -> Fe {
    Fe(add_limbs(a, P.map(|limb| limb & mask)).0)
}

/// Reduces `hi·2^256 + a`, known to lie below `2p`, into `[0, p)`.
#[inline(always)]
fn sub_p_once(a: [u64; 4], hi: u64) -> Fe {
    let (diff, borrow) = sub_limbs(a, P);
    let (_, mask) = sbb(hi, 0, borrow);
    add_p_masked(diff, mask)
}

/// Montgomery reduction `t·R⁻¹ mod p` of a 512-bit `t < p·R`. With
/// `−p⁻¹ ≡ 1 (mod 2^64)`, round `i`'s quotient digit is `t[i]` itself:
/// adding `t[i]·p` clears limb `i` (`p`'s limb 0 is `2^64 − 1`), carries
/// `t[i]` into limb `i + 1`, and touches limb `i + 3` through `p`'s top
/// limb. The sum before the final subtraction is below `2p`.
#[inline(always)]
fn montgomery_reduce(mut t: [u64; 8]) -> Fe {
    let mut hi = 0;
    for i in 0..4 {
        let u = t[i];
        let (r1, carry) = mac(t[i + 1], u, P[1], u);
        let (r2, carry) = adc(t[i + 2], 0, carry);
        let (r3, carry) = mac(t[i + 3], u, P[3], carry);
        let (r4, carry) = adc(t[i + 4], hi, carry);
        (t[i + 1], t[i + 2], t[i + 3], t[i + 4], hi) = (r1, r2, r3, r4, carry);
    }
    sub_p_once([t[4], t[5], t[6], t[7]], hi)
}

/// A field element in Montgomery form: the limbs hold `a·R mod p`, fully
/// reduced, so limb equality is field equality.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Fe([u64; 4]);

impl Fe {
    const ZERO: Fe = Fe([0; 4]);
    /// `R mod p = 2^256 − p`: the Montgomery form of 1.
    const ONE: Fe = Fe([1, 0xffff_ffff_0000_0000, u64::MAX, 0xffff_fffe]);
    /// `R² mod p`: multiplying by it enters Montgomery form.
    const R2: Fe = Fe([
        3,
        0xffff_fffb_ffff_ffff,
        0xffff_ffff_ffff_fffe,
        0x4_ffff_fffd,
    ]);

    /// Enters Montgomery form. Any 256-bit value is accepted: `a·R²` is
    /// below `p·R`, so the reduction also reduces `a` modulo `p`.
    fn from_u256(a: U256) -> Fe {
        Fe(a.limbs()).mul(Fe::R2)
    }

    /// Leaves Montgomery form.
    fn to_u256(self) -> U256 {
        let [a0, a1, a2, a3] = self.0;
        U256::from_limbs(montgomery_reduce([a0, a1, a2, a3, 0, 0, 0, 0]).0)
    }

    fn is_zero(self) -> bool {
        self.0 == [0; 4]
    }

    #[inline]
    fn add(self, rhs: Fe) -> Fe {
        let (sum, carry) = add_limbs(self.0, rhs.0);
        sub_p_once(sum, carry)
    }

    #[inline]
    fn sub(self, rhs: Fe) -> Fe {
        let (diff, borrow) = sub_limbs(self.0, rhs.0);
        add_p_masked(diff, borrow)
    }

    #[inline]
    fn double(self) -> Fe {
        self.add(self)
    }

    /// Schoolbook 4×4-limb product, then Montgomery reduction.
    #[inline]
    fn mul(self, rhs: Fe) -> Fe {
        let (a, b) = (self.0, rhs.0);
        let mut t = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0;
            for j in 0..4 {
                (t[i + j], carry) = mac(t[i + j], a[i], b[j], carry);
            }
            t[i + 4] = carry;
        }
        montgomery_reduce(t)
    }

    /// Squaring: the six off-diagonal products are computed once and
    /// doubled, so a square costs 10 limb multiplies to a product's 16.
    /// Point doubling is mostly squarings.
    #[inline]
    fn square(self) -> Fe {
        let a = self.0;
        let mut t = [0u64; 8];
        for i in 0..3 {
            let mut carry = 0;
            for j in i + 1..4 {
                (t[i + j], carry) = mac(t[i + j], a[i], a[j], carry);
            }
            t[i + 4] = carry;
        }
        for k in (1..8).rev() {
            t[k] = (t[k] << 1) | (t[k - 1] >> 63);
        }
        let mut carry = 0;
        for i in 0..4 {
            let (lo, c) = mac(t[2 * i], a[i], a[i], carry);
            let (hi, c) = adc(t[2 * i + 1], 0, c);
            (t[2 * i], t[2 * i + 1], carry) = (lo, hi, c);
        }
        montgomery_reduce(t)
    }

    /// `self^(2^n)`.
    fn sqn(self, n: usize) -> Fe {
        (0..n).fold(self, |acc, _| acc.square())
    }

    /// `self^(p−2)` along the P-256 addition chain (255 squarings, 12
    /// multiplications), or `None` for zero. `p − 2` is, from the top,
    /// `0xffffffff00000001`, 96 zero bits, then 94 ones, `0`, `1`; the
    /// chain builds runs of ones (`x15`, `x16`, `x47`) and splices them.
    fn invert(self) -> Option<Fe> {
        if self.is_zero() {
            return None;
        }
        let x = self;
        let x3 = x.mul(x.square()).square().mul(x);
        let x6 = x3.mul(x3.sqn(3));
        let x15 = x6.sqn(6).mul(x6).sqn(3).mul(x3);
        let x16 = x15.square().mul(x);
        let i53 = x16.sqn(16).mul(x16).sqn(15);
        let x47 = x15.mul(i53);
        let top = i53.sqn(17).mul(x).sqn(143).mul(x47).sqn(47);
        Some(x47.mul(top).sqn(2).mul(x))
    }
}

/// Multiplies two field elements modulo the P-256 prime through the
/// Montgomery field (the hot path of every point operation). Inputs of
/// any size are reduced first. Exposed so property tests can pin the field
/// against the binary-division reduction in [`crate::bigint`].
pub fn field_mul(a: U256, b: U256) -> U256 {
    Fe::from_u256(a).mul(Fe::from_u256(b)).to_u256()
}

/// Squares a field element through the Montgomery field's dedicated
/// squaring; a test hook like [`field_mul`].
pub fn field_square(a: U256) -> U256 {
    Fe::from_u256(a).square().to_u256()
}

/// Inverts a field element through the addition chain, `None` for
/// `a ≡ 0`; a test hook like [`field_mul`].
pub fn field_inv(a: U256) -> Option<U256> {
    Fe::from_u256(a).invert().map(Fe::to_u256)
}

// --- group arithmetic ------------------------------------------------------

/// A scalar modulo the group order — a P-256 private key.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Scalar(U256);

impl Scalar {
    /// Creates a scalar from a small integer (useful in tests/doctests).
    pub fn from_u64(v: u64) -> Self {
        Scalar(U256::from_u64(v))
    }

    /// Creates a scalar from 32 big-endian bytes, reducing modulo `n`.
    pub fn from_be_bytes(bytes: [u8; 32]) -> Self {
        Scalar(U256::from_be_bytes(bytes).rem_short(group_order()))
    }

    /// Creates a scalar directly from a (reduced) [`U256`].
    pub fn from_u256(v: U256) -> Self {
        Scalar(v.rem_short(group_order()))
    }

    /// The reduced scalar value.
    pub fn value(&self) -> U256 {
        self.0
    }

    /// Whether the scalar is zero (an invalid private key).
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }
}

impl fmt::Debug for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Private-key material: show a fingerprint only.
        let b = self.0.to_be_bytes();
        write!(f, "Scalar({:02x}{:02x}..)", b[0], b[1])
    }
}

/// A point on the curve in affine form (or the point at infinity).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Point {
    /// The identity element.
    Infinity,
    /// An affine point.
    Affine {
        /// x coordinate.
        x: U256,
        /// y coordinate.
        y: U256,
    },
}

/// Jacobian-coordinate point used internally: `(X, Y, Z)` with
/// `x = X/Z²`, `y = Y/Z³`, all in Montgomery form; infinity encoded as
/// `Z = 0`.
#[derive(Clone, Copy, Debug)]
struct Jacobian {
    x: Fe,
    y: Fe,
    z: Fe,
}

impl Jacobian {
    const INFINITY: Jacobian = Jacobian {
        x: Fe::ONE,
        y: Fe::ONE,
        z: Fe::ZERO,
    };

    fn from_affine(p: &Point) -> Jacobian {
        match p {
            Point::Infinity => Jacobian::INFINITY,
            Point::Affine { x, y } => Jacobian {
                x: Fe::from_u256(*x),
                y: Fe::from_u256(*y),
                z: Fe::ONE,
            },
        }
    }

    fn to_affine(self) -> Point {
        let Some(z_inv) = self.z.invert() else {
            return Point::Infinity;
        };
        let z_inv2 = z_inv.square();
        Point::Affine {
            x: self.x.mul(z_inv2).to_u256(),
            y: self.y.mul(z_inv2.mul(z_inv)).to_u256(),
        }
    }

    /// Point doubling (dbl-2001-b style, a = -3).
    fn double(&self) -> Jacobian {
        if self.z.is_zero() || self.y.is_zero() {
            return Jacobian::INFINITY;
        }
        let delta = self.z.square();
        let gamma = self.y.square();
        let beta = self.x.mul(gamma);
        let alpha = {
            let t1 = self.x.sub(delta);
            let t2 = self.x.add(delta);
            t1.double().add(t1).mul(t2) // 3*(x-δ) * (x+δ)
        };
        let beta4 = beta.double().double();
        let beta8 = beta4.double();
        let x3 = alpha.square().sub(beta8);
        let z3 = self.y.add(self.z).square().sub(gamma).sub(delta);
        let gamma2_8 = gamma.square().double().double().double();
        let y3 = alpha.mul(beta4.sub(x3)).sub(gamma2_8);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General point addition (add-2007-bl).
    fn add(&self, other: &Jacobian) -> Jacobian {
        if self.z.is_zero() {
            return *other;
        }
        if other.z.is_zero() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x.mul(z2z2);
        let u2 = other.x.mul(z1z1);
        let s1 = self.y.mul(other.z).mul(z2z2);
        let s2 = other.y.mul(self.z).mul(z1z1);
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Jacobian::INFINITY;
        }
        let h = u2.sub(u1);
        let i = h.double().square();
        let j = h.mul(i);
        let r = s2.sub(s1).double();
        let v = u1.mul(i);
        let x3 = r.square().sub(j).sub(v.double());
        let y3 = r.mul(v.sub(x3)).sub(s1.mul(j).double());
        let z3 = self.z.add(other.z).square().sub(z1z1).sub(z2z2).mul(h);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition with an affine point (madd-2007-bl, Z2 = 1): saves
    /// 4M + 1S over the general [`Self::add`], which is why both scalar
    /// multipliers normalize their tables to affine first.
    fn madd(&self, x2: Fe, y2: Fe) -> Jacobian {
        if self.z.is_zero() {
            return Jacobian {
                x: x2,
                y: y2,
                z: Fe::ONE,
            };
        }
        let z1z1 = self.z.square();
        let u2 = x2.mul(z1z1);
        let s2 = y2.mul(self.z.mul(z1z1));
        if u2 == self.x {
            if s2 == self.y {
                return self.double();
            }
            return Jacobian::INFINITY;
        }
        let h = u2.sub(self.x);
        let hh = h.square();
        let i = hh.double().double();
        let j = h.mul(i);
        let r = s2.sub(self.y).double();
        let v = self.x.mul(i);
        let x3 = r.square().sub(j).sub(v.double());
        let y3 = r.mul(v.sub(x3)).sub(self.y.mul(j).double());
        let z3 = self.z.add(h).square().sub(z1z1).sub(hh);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }
}

/// Normalizes a batch of non-infinity Jacobian points to affine `(x, y)`
/// in `out` with a single field inversion (Montgomery's trick):
/// prefix-multiply the Z coordinates, invert the product once, then walk
/// back unwinding each individual inverse. The prefix products are parked
/// in `out`'s x slots, so the caller's buffer is the only storage.
fn batch_to_affine(points: &[Jacobian], out: &mut [(Fe, Fe)]) {
    debug_assert_eq!(points.len(), out.len());
    let mut acc = Fe::ONE;
    for (point, slot) in points.iter().zip(out.iter_mut()) {
        acc = acc.mul(point.z);
        slot.0 = acc;
    }
    let mut inv = acc.invert().expect("batch contains no infinity");
    for i in (0..points.len()).rev() {
        let z_inv = if i == 0 { inv } else { inv.mul(out[i - 1].0) };
        inv = inv.mul(points[i].z);
        let z_inv2 = z_inv.square();
        out[i] = (points[i].x.mul(z_inv2), points[i].y.mul(z_inv2.mul(z_inv)));
    }
}

// --- scalar multiplication -------------------------------------------------

/// Window width for the arbitrary-point multiplier: digits in
/// `{±1, ±3, …, ±15}`, an 8-entry odd-multiples table.
const WNAF_WIDTH: u32 = 5;
const WNAF_ODD_MULTIPLES: usize = 1 << (WNAF_WIDTH - 2);
/// Longest width-5 NAF of a 256-bit scalar: recoding can carry one digit
/// past the top bit.
const WNAF_MAX_DIGITS: usize = 257;

/// Width-5 NAF recoding, least-significant digit first, as a digit array
/// and its length. At most one of any five consecutive digits is nonzero,
/// so a 256-bit scalar costs ~256 doubles but only ~43 additions (vs ~128
/// for double-and-add).
fn wnaf_digits(k: &U256) -> ([i8; WNAF_MAX_DIGITS], usize) {
    let mut limbs = k.limbs();
    let mut digits = [0i8; WNAF_MAX_DIGITS];
    let mut len = 0;
    while limbs != [0u64; 4] {
        if limbs[0] & 1 == 1 {
            let mut d = (limbs[0] & ((1 << WNAF_WIDTH) - 1)) as i32;
            if d >= 1 << (WNAF_WIDTH - 1) {
                d -= 1 << WNAF_WIDTH;
            }
            // Subtract the signed digit so the low WNAF_WIDTH bits clear.
            let small = [u64::from(d.unsigned_abs()), 0, 0, 0];
            limbs = if d >= 0 {
                sub_limbs(limbs, small).0
            } else {
                add_limbs(limbs, small).0
            };
            digits[len] = d as i8;
        }
        len += 1;
        limbs = [0, 1, 2, 3].map(|i| limbs[i] >> 1 | limbs.get(i + 1).map_or(0, |next| next << 63));
    }
    (digits, len)
}

/// Windowed-NAF scalar multiplication for an arbitrary base point.
fn mul_wnaf(base: &Point, k: &U256) -> Point {
    if *base == Point::Infinity || k.is_zero() {
        return Point::Infinity;
    }
    let base_jac = Jacobian::from_affine(base);
    // `twice` is infinity for a y = 0 input (a 2-torsion point, impossible
    // on P-256 itself, but `mul` accepts arbitrary coordinates). Every odd
    // multiple of such a point is the point itself, which is exactly what
    // the table below then holds.
    let twice = base_jac.double();
    // Odd multiples 1·B, 3·B, …, 15·B, normalized to affine for madd.
    let mut odd = [base_jac; WNAF_ODD_MULTIPLES];
    for i in 1..WNAF_ODD_MULTIPLES {
        odd[i] = odd[i - 1].add(&twice);
    }
    let mut table = [(Fe::ZERO, Fe::ZERO); WNAF_ODD_MULTIPLES];
    batch_to_affine(&odd, &mut table);
    let (digits, len) = wnaf_digits(k);
    let mut acc = Jacobian::INFINITY;
    for &digit in digits[..len].iter().rev() {
        acc = acc.double();
        if digit > 0 {
            let (x, y) = table[(digit as usize - 1) / 2];
            acc = acc.madd(x, y);
        } else if digit < 0 {
            let (x, y) = table[((-digit) as usize - 1) / 2];
            acc = acc.madd(x, Fe::ZERO.sub(y));
        }
    }
    acc.to_affine()
}

/// Fixed-base window width: 4-bit digits, 64 windows, 15 odd+even entries
/// per window (`j · 16^w · G` for `j` in 1..=15).
const FB_WINDOWS: usize = 64;
const FB_TABLE_PER_WINDOW: usize = 15;

static GEN_TABLE: OnceLock<Vec<(Fe, Fe)>> = OnceLock::new();

/// The precomputed generator table. Built once per process (~1k group
/// additions + one batched inversion), it turns every subsequent `k·G`
/// into at most 64 mixed additions with no doubles at all — keygen is the
/// hot path of every simulated pairing, one per device per trial.
fn gen_table() -> &'static [(Fe, Fe)] {
    GEN_TABLE.get_or_init(|| {
        let mut points = Vec::with_capacity(FB_WINDOWS * FB_TABLE_PER_WINDOW);
        let mut window_base = Jacobian::from_affine(&generator());
        for _ in 0..FB_WINDOWS {
            // multiple walks j·(16^w·G) for j = 1..=15; one more addition
            // yields 16·(16^w·G), the next window's base.
            let mut multiple = window_base;
            for _ in 0..FB_TABLE_PER_WINDOW {
                points.push(multiple);
                multiple = multiple.add(&window_base);
            }
            window_base = multiple;
        }
        let mut table = vec![(Fe::ZERO, Fe::ZERO); points.len()];
        batch_to_affine(&points, &mut table);
        table
    })
}

/// Fixed-base scalar multiplication `k·G` via the precomputed table.
fn mul_generator(k: &U256) -> Point {
    let table = gen_table();
    let limbs = k.limbs();
    let mut acc = Jacobian::INFINITY;
    for window in 0..FB_WINDOWS {
        let digit = ((limbs[window / 16] >> (4 * (window % 16))) & 0xf) as usize;
        if digit != 0 {
            let (x, y) = table[window * FB_TABLE_PER_WINDOW + digit - 1];
            acc = acc.madd(x, y);
        }
    }
    acc.to_affine()
}

impl Point {
    /// The affine x-coordinate, if not the point at infinity.
    pub fn x(&self) -> Option<U256> {
        match self {
            Point::Infinity => None,
            Point::Affine { x, .. } => Some(*x),
        }
    }

    /// The affine y-coordinate, if not the point at infinity.
    pub fn y(&self) -> Option<U256> {
        match self {
            Point::Infinity => None,
            Point::Affine { y, .. } => Some(*y),
        }
    }

    /// Validates that the point satisfies `y² = x³ - 3x + b (mod p)` with
    /// both coordinates in range.
    ///
    /// Skipping this check is exactly the "fixed coordinate invalid curve
    /// attack" (Biham & Neumann) referenced in the paper's related work; the
    /// simulated controller always validates remote public keys.
    pub fn is_on_curve(&self) -> bool {
        match self {
            Point::Infinity => true,
            Point::Affine { x, y } => {
                let p = field_prime();
                if *x >= p || *y >= p {
                    return false;
                }
                let (x, y) = (Fe::from_u256(*x), Fe::from_u256(*y));
                let x3 = x.square().mul(x);
                let three_x = x.double().add(x);
                y.square() == x3.sub(three_x).add(Fe::from_u256(B))
            }
        }
    }

    /// Point addition.
    pub fn add(&self, other: &Point) -> Point {
        Jacobian::from_affine(self)
            .add(&Jacobian::from_affine(other))
            .to_affine()
    }

    /// Scalar multiplication.
    ///
    /// Dispatches to the precomputed fixed-base table when `self` is the
    /// curve generator (the keygen hot path) and to width-5 windowed-NAF
    /// otherwise (the ECDH hot path). Both are pinned property-test-equal
    /// to [`Self::mul_double_and_add`].
    pub fn mul(&self, k: &Scalar) -> Point {
        let _prof = blap_obs::prof::scope("crypto.p256");
        if let Point::Affine { x, y } = self {
            if *x == GX && *y == GY {
                return mul_generator(&k.0);
            }
        }
        mul_wnaf(self, &k.0)
    }

    /// Scalar multiplication by textbook double-and-add, most-significant
    /// bit first. Retained as the independently-auditable reference that
    /// `tests/parallel_determinism.rs` pins [`Self::mul`] against.
    pub fn mul_double_and_add(&self, k: &Scalar) -> Point {
        let base = Jacobian::from_affine(self);
        let mut acc = Jacobian::INFINITY;
        let bits = k.0.bits();
        for i in (0..bits).rev() {
            acc = acc.double();
            if k.0.bit(i) {
                acc = acc.add(&base);
            }
        }
        acc.to_affine()
    }
}

/// Errors from key-pair construction and ECDH.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcdhError {
    /// The private scalar was zero (or reduced to zero).
    InvalidSecret,
    /// The remote public key failed curve validation.
    InvalidPublicKey,
    /// The shared point was the point at infinity.
    DegenerateSharedSecret,
}

impl fmt::Display for EcdhError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcdhError::InvalidSecret => f.write_str("private scalar is zero"),
            EcdhError::InvalidPublicKey => f.write_str("remote public key is not on the curve"),
            EcdhError::DegenerateSharedSecret => {
                f.write_str("shared secret degenerated to the point at infinity")
            }
        }
    }
}

impl std::error::Error for EcdhError {}

/// A P-256 key pair.
///
/// # Examples
///
/// ```
/// use blap_crypto::p256::{KeyPair, Scalar};
///
/// let alice = KeyPair::from_secret(Scalar::from_u64(7))?;
/// let bob = KeyPair::from_secret(Scalar::from_u64(11))?;
/// assert_eq!(
///     alice.diffie_hellman(&bob.public())?,
///     bob.diffie_hellman(&alice.public())?,
/// );
/// # Ok::<(), blap_crypto::p256::EcdhError>(())
/// ```
#[derive(Clone, Debug)]
pub struct KeyPair {
    secret: Scalar,
    public: Point,
}

impl KeyPair {
    /// Builds a key pair from a private scalar.
    ///
    /// # Errors
    ///
    /// Returns [`EcdhError::InvalidSecret`] when the scalar is zero.
    pub fn from_secret(secret: Scalar) -> Result<Self, EcdhError> {
        if secret.is_zero() {
            return Err(EcdhError::InvalidSecret);
        }
        let public = generator().mul(&secret);
        Ok(KeyPair { secret, public })
    }

    /// Builds a key pair from 32 bytes of RNG output (reduced mod `n`).
    ///
    /// # Errors
    ///
    /// Returns [`EcdhError::InvalidSecret`] in the (cryptographically
    /// negligible) case the bytes reduce to zero.
    pub fn from_rng_bytes(bytes: [u8; 32]) -> Result<Self, EcdhError> {
        KeyPair::from_secret(Scalar::from_be_bytes(bytes))
    }

    /// The public point.
    pub fn public(&self) -> Point {
        self.public
    }

    /// Computes the ECDH shared secret: the big-endian x-coordinate of
    /// `secret · remote_public`, the `DHKey` of the SSP protocol.
    ///
    /// # Errors
    ///
    /// Returns [`EcdhError::InvalidPublicKey`] when the remote point fails
    /// curve validation, and [`EcdhError::DegenerateSharedSecret`] when the
    /// multiplication lands on the point at infinity.
    pub fn diffie_hellman(&self, remote_public: &Point) -> Result<[u8; 32], EcdhError> {
        if !remote_public.is_on_curve() || *remote_public == Point::Infinity {
            return Err(EcdhError::InvalidPublicKey);
        }
        let shared = remote_public.mul(&self.secret);
        match shared.x() {
            Some(x) => Ok(x.to_be_bytes()),
            None => Err(EcdhError::DegenerateSharedSecret),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_reduction_matches_binary_division() {
        // Pin the Montgomery multiplier against the audited-slow path.
        let p = field_prime();
        let samples = [
            U256::from_u64(0),
            U256::from_u64(1),
            U256::from_hex("deadbeefcafebabe0123456789abcdef0fedcba9876543211122334455667788"),
            p.overflowing_sub(U256::ONE).0,
            U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),
            U256::from_hex("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"),
        ];
        for a in samples {
            for b in samples {
                let wide = a.widening_mul(b);
                assert_eq!(field_mul(a, b), wide.rem(p), "mismatch for {a} * {b}");
            }
        }
    }

    #[test]
    fn generator_is_on_curve() {
        assert!(generator().is_on_curve());
    }

    #[test]
    fn infinity_is_identity() {
        let g = generator();
        assert_eq!(g.add(&Point::Infinity), g);
        assert_eq!(Point::Infinity.add(&g), g);
        assert!(Point::Infinity.is_on_curve());
    }

    #[test]
    fn group_order_annihilates_generator() {
        let n = Scalar(group_order());
        assert_eq!(generator().mul(&n), Point::Infinity);
    }

    #[test]
    fn doubling_matches_addition() {
        let g = generator();
        let two_g = g.mul(&Scalar::from_u64(2));
        assert_eq!(two_g, g.add(&g));
        assert!(two_g.is_on_curve());
    }

    #[test]
    fn scalar_mul_distributes() {
        let g = generator();
        let five = g.mul(&Scalar::from_u64(5));
        let two_plus_three = g
            .mul(&Scalar::from_u64(2))
            .add(&g.mul(&Scalar::from_u64(3)));
        assert_eq!(five, two_plus_three);
        assert!(five.is_on_curve());
    }

    #[test]
    fn negation_gives_infinity() {
        let g = generator();
        if let Point::Affine { x, y } = g {
            let neg = Point::Affine {
                x,
                y: field_prime().overflowing_sub(y).0,
            };
            assert!(neg.is_on_curve());
            assert_eq!(g.add(&neg), Point::Infinity);
        } else {
            panic!("generator must be affine");
        }
    }

    #[test]
    fn ecdh_agreement() {
        let a = KeyPair::from_secret(Scalar::from_be_bytes([0x42; 32])).unwrap();
        let b = KeyPair::from_secret(Scalar::from_be_bytes([0x17; 32])).unwrap();
        let s1 = a.diffie_hellman(&b.public()).unwrap();
        let s2 = b.diffie_hellman(&a.public()).unwrap();
        assert_eq!(s1, s2);
        assert_ne!(s1, [0u8; 32]);
    }

    #[test]
    fn invalid_public_key_rejected() {
        let a = KeyPair::from_secret(Scalar::from_u64(99)).unwrap();
        let bogus = Point::Affine {
            x: U256::from_u64(1),
            y: U256::from_u64(1),
        };
        assert_eq!(a.diffie_hellman(&bogus), Err(EcdhError::InvalidPublicKey));
        assert_eq!(
            a.diffie_hellman(&Point::Infinity),
            Err(EcdhError::InvalidPublicKey)
        );
    }

    #[test]
    fn zero_secret_rejected() {
        assert_eq!(
            KeyPair::from_secret(Scalar::from_u64(0)).unwrap_err(),
            EcdhError::InvalidSecret
        );
    }

    #[test]
    fn scalar_reduces_mod_order() {
        // n + 5 reduces to 5.
        let (n_plus_5, carry) = group_order().overflowing_add(U256::from_u64(5));
        assert!(!carry);
        let s = Scalar::from_be_bytes(n_plus_5.to_be_bytes());
        assert_eq!(s.value(), U256::from_u64(5));
    }

    #[test]
    fn public_points_lie_on_curve() {
        for seed in 1..6u64 {
            let kp = KeyPair::from_secret(Scalar::from_u64(seed * 7919)).unwrap();
            assert!(kp.public().is_on_curve(), "seed {seed}");
        }
    }

    #[test]
    fn field_inversion() {
        let a = U256::from_hex("123456789abcdef000000000000000000000000000000000fedcba9876543210");
        let inv = field_inv(a).unwrap();
        assert_eq!(field_mul(a, inv), U256::ONE);
        assert_eq!(inv, a.inv_mod_prime(field_prime()).unwrap());
        assert_eq!(field_inv(U256::ZERO), None);
        assert_eq!(field_inv(field_prime()), None);
    }
}
