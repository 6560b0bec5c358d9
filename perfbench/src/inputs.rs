//! Seeded inputs for every workload family.
//!
//! Everything here is a pure function of the run's `--seed`: the same
//! seed builds byte-identical inputs. The program under test only ever
//! sees the generated inputs, never the seed.

use std::ops::Range;

use blap::addrs;
use blap::campaign::{Campaign, Population};
use blap::legacy_pin::LegacyPairingCapture;
use blap::page_blocking::PageBlockingScenario;
use blap_crypto::{ccm, ssp};
use blap_obs::{JsonlBuffer, TraceEvent, Tracer};
use blap_sim::{profiles, SniffedFrame, World};
use blap_snoop::hexconv::scan_link_key_replies;
use blap_snoop::log::HciTrace;
use blap_types::{BdAddr, Duration, Instant, LinkKey, ServiceUuid};

/// SplitMix64: the benchmark's own seed stream.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A random byte other than `0x0b`, so generated filler can never
    /// spell the `0b 04 16` opcode the USB scanner searches for.
    pub fn filler_byte(&mut self) -> u8 {
        match self.next() as u8 {
            0x0b => 0x0c,
            b => b,
        }
    }

    /// `N` filler bytes.
    pub fn filler<const N: usize>(&mut self) -> [u8; N] {
        core::array::from_fn(|_| self.filler_byte())
    }
}

// --- campaign ---------------------------------------------------------------

/// Trials per campaign batch (one shard).
pub const CAMPAIGN_SHARD_TRIALS: u64 = 64;
/// Shards available to one run; far more than a run can use.
const CAMPAIGN_SHARDS: u64 = 4096;

/// A fleet campaign sharded into [`CAMPAIGN_SHARD_TRIALS`]-trial batches.
pub fn campaign(seed: u64) -> Campaign {
    Campaign {
        population: Population::fleet(),
        trials: CAMPAIGN_SHARD_TRIALS * CAMPAIGN_SHARDS,
        shards: CAMPAIGN_SHARDS,
        seed,
    }
}

/// The same trials as [`campaign`], one trial per shard, so each trial
/// can be timed on its own.
pub fn campaign_single_trials(seed: u64) -> Campaign {
    Campaign {
        shards: CAMPAIGN_SHARD_TRIALS * CAMPAIGN_SHARDS,
        ..campaign(seed)
    }
}

// --- PIN sweeps -------------------------------------------------------------

/// One planted PIN and the transcript an eavesdropper captured.
pub struct PinCase {
    /// The sniffed legacy pairing.
    pub capture: LegacyPairingCapture,
    /// The planted PIN, ASCII.
    pub pin: Vec<u8>,
    /// Candidates a correct sweep tests up to and including the PIN.
    pub attempts: usize,
}

/// Digits of every planted PIN, and the longest PIN a sweep tries.
pub const PIN_DIGITS: u32 = 5;
/// Candidates before the first 5-digit PIN: every 1- to 4-digit PIN.
const SHORTER_PINS: u64 = 11_110;
/// 5-digit PINs.
const PIN_SPACE: u64 = 100_000;
/// PIN cases per run, one per stratum of the 5-digit space.
pub const PIN_CASES: u64 = 12;

/// [`PIN_CASES`] captures whose 5-digit PINs sit one per equal stratum of
/// the 5-digit space, at a seeded offset within the stratum, so the
/// sweeps cover short, middle and near-full searches. A sweep walks
/// shorter PINs first, so case `k` tests ~`11 110 + (k + u)·10⁵/12`
/// candidates.
pub fn pin_cases(seed: u64) -> Vec<PinCase> {
    let mut rng = Rng::new(seed, 1);
    let initiator: BdAddr = addrs::M.parse().expect("valid address");
    let responder: BdAddr = addrs::C.parse().expect("valid address");
    let stratum = PIN_SPACE / PIN_CASES;
    (0..PIN_CASES)
        .map(|k| {
            let value = k * stratum + rng.below(stratum);
            let pin = format!("{value:05}").into_bytes();
            let capture = LegacyPairingCapture::synthesize(
                initiator,
                responder,
                &pin,
                rng.filler(),
                rng.filler(),
                rng.filler(),
                rng.filler(),
            );
            PinCase {
                capture,
                pin,
                attempts: (SHORTER_PINS + value + 1) as usize,
            }
        })
        .collect()
}

// --- eavesdrop capture ------------------------------------------------------

/// Frames in the synthetic eavesdrop capture.
pub const EAVESDROP_FRAMES: usize = 8192;
/// Plaintext bytes per captured frame.
pub const EAVESDROP_FRAME_LEN: usize = 256;

/// A sniffed encrypted session and what decrypting it must recover.
pub struct EavesdropCase {
    /// The capture: one `LMP_au_rand`, then the encrypted ACL frames.
    pub capture: Vec<SniffedFrame>,
    /// The stolen link key.
    pub link_key: LinkKey,
    /// Authentication verifier (and link central).
    pub verifier: BdAddr,
    /// Authentication prover.
    pub prover: BdAddr,
    /// Every frame's plaintext, in capture order.
    pub plaintexts: Vec<Vec<u8>>,
}

impl EavesdropCase {
    /// Plaintext bytes one decrypt pass recovers.
    pub fn payload_bytes(&self) -> usize {
        self.plaintexts.iter().map(Vec::len).sum()
    }
}

/// A capture of `frames` encrypted `frame_len`-byte frames sealed under a
/// real session-key schedule, exactly as the link would have sealed them.
pub fn eavesdrop_case(seed: u64, frames: usize, frame_len: usize) -> EavesdropCase {
    let mut rng = Rng::new(seed, 2);
    let verifier: BdAddr = addrs::C.parse().expect("valid address");
    let prover: BdAddr = addrs::M.parse().expect("valid address");
    let link_key = LinkKey::new(rng.filler());
    let au_rand: [u8; 16] = rng.filler();
    let (_sres, aco) =
        ssp::secure_authentication_response(&link_key, verifier, prover, &au_rand, &[0u8; 16]);
    let mut aco_ext = [0u8; 8];
    aco_ext.copy_from_slice(&aco);
    let session = ccm::Ccm::new(&ssp::h3(&link_key, verifier, prover, &aco_ext));

    let mut capture = Vec::with_capacity(frames + 1);
    capture.push(SniffedFrame::Lmp {
        time: Instant::EPOCH,
        from: verifier,
        to: prover,
        name: "LMP_au_rand",
        au_rand: Some(au_rand),
    });
    let mut plaintexts = Vec::with_capacity(frames);
    for i in 0..frames {
        let payload: Vec<u8> = (0..frame_len).map(|_| rng.next() as u8).collect();
        let sealed = session
            .seal(
                &ccm::acl_nonce(i as u64, verifier),
                &1u16.to_le_bytes(),
                &payload,
            )
            .expect("frame fits the CCM length field");
        capture.push(SniffedFrame::Acl {
            time: Instant::from_micros(1 + i as u64),
            from: verifier,
            to: prover,
            data: sealed.into(),
            encrypted: true,
            packet_counter: i as u64,
        });
        plaintexts.push(payload);
    }
    EavesdropCase {
        capture,
        link_key,
        verifier,
        prover,
        plaintexts,
    }
}

// --- HCI dumps --------------------------------------------------------------

/// Simulated bonding sessions behind the HCI dumps.
pub const DUMP_SESSIONS: usize = 32;
/// Times the sessions' captures repeat in each dump, so a pass reads a
/// dump of a few MB, the size of a phone's bug-report snoop log.
pub const DUMP_COPIES: usize = 64;
/// Most disconnect/reconnect cycles in one session.
const MAX_RECONNECTS: u64 = 2;
/// Simulated time one session spans in the merged btsnoop dump.
const SESSION_SPAN_US: u64 = 30_000_000;

/// One simulated session of the Fig 11 world: a USB-transport PC bonds
/// with a snoop-enabled phone, then disconnects and reconnects one or
/// two times, so the link key crosses both observation taps.
pub struct Session {
    /// The phone's bug-report btsnoop file.
    pub btsnoop: Vec<u8>,
    /// The PC's raw USB analyzer stream.
    pub usb: Vec<u8>,
    /// The PC's address.
    pub pc: BdAddr,
    /// The phone's address.
    pub phone: BdAddr,
    /// The link key the phone stored for the PC.
    pub phone_key: Option<LinkKey>,
    /// The link key the PC stored for the phone.
    pub pc_key: Option<LinkKey>,
}

/// Session `index` of `seed`: the phone and PC profiles, their addresses,
/// the number of reconnects and the world's seed all vary with it.
pub fn session(seed: u64, index: usize) -> Session {
    let phones = [
        profiles::nexus_5x_a8(),
        profiles::lg_v50(),
        profiles::galaxy_s8(),
        profiles::pixel_2_xl(),
        profiles::lg_velvet(),
        profiles::galaxy_s21(),
    ];
    let pcs = [
        profiles::windows_ms_driver(),
        profiles::windows_csr_harmony(),
        profiles::ubuntu_bluez(),
    ];
    let mut rng = Rng::new(blap::runner::seed_for(seed, index as u64), 3);
    let pc = BdAddr::new(rng.filler());
    let phone = BdAddr::new(rng.filler());
    let mut world = World::new(rng.next());
    let pc_id =
        world.add_device(pcs[rng.below(pcs.len() as u64) as usize].soft_target(&pc.to_string()));
    let phone_id = world.add_device(
        phones[rng.below(phones.len() as u64) as usize].victim_phone_with_snoop(&phone.to_string()),
    );
    world.device_mut(pc_id).host.pair_with(phone);
    world.run_for(Duration::from_secs(5));
    for _ in 0..1 + rng.below(MAX_RECONNECTS) {
        world.device_mut(pc_id).host.disconnect(phone);
        world.run_for(Duration::from_secs(2));
        world
            .device_mut(pc_id)
            .host
            .connect_profile(phone, ServiceUuid::HANDS_FREE);
        world.run_for(Duration::from_secs(5));
    }
    let key = |id, peer| {
        world
            .device(id)
            .host
            .keystore()
            .get(peer)
            .map(|b| b.link_key)
    };
    Session {
        btsnoop: world.device(phone_id).bug_report().unwrap_or_default(),
        usb: world.device(pc_id).usb_capture().unwrap_or_default(),
        pc,
        phone,
        phone_key: key(phone_id, pc),
        pc_key: key(pc_id, phone),
    }
}

/// A large btsnoop dump and USB stream made of simulated sessions, with
/// what extraction must find in them.
pub struct DumpCase {
    /// The btsnoop file bytes.
    pub btsnoop: Vec<u8>,
    /// The raw USB analyzer stream.
    pub usb: Vec<u8>,
    /// Every `(peer, key)` the btsnoop dump carries, in capture order.
    pub keys: Vec<(BdAddr, LinkKey)>,
    /// Every `HCI_Link_Key_Request_Reply` the USB scan finds, in order.
    pub reply_keys: Vec<(BdAddr, LinkKey)>,
    /// Packets in the btsnoop dump.
    pub packets: usize,
    /// Whether every session leaked its bond key on both taps.
    pub leaked: bool,
}

impl DumpCase {
    /// Bytes one extraction pass reads (both captures).
    pub fn bytes(&self) -> usize {
        self.btsnoop.len() + self.usb.len()
    }
}

/// [`DUMP_COPIES`] copies of `sessions` simulated sessions, end to end:
/// the phones' btsnoop records merged into one file on one time line, the
/// PCs' USB streams concatenated. The expected keys are what extraction
/// finds in each session's own capture, and each session must leak the
/// key its devices bonded with: the phone's dump holds only the PC's
/// bond key, and the PC's USB stream holds at least one reply carrying
/// the phone's.
pub fn dump_case(seed: u64, sessions: usize) -> DumpCase {
    struct Captured {
        trace: HciTrace,
        usb: Vec<u8>,
        keys: Vec<(BdAddr, LinkKey)>,
        replies: Vec<(BdAddr, LinkKey)>,
    }
    let mut leaked = true;
    let captured: Vec<Captured> = (0..sessions)
        .map(|index| {
            let s = session(seed, index);
            let trace = HciTrace::from_btsnoop_bytes(&s.btsnoop).unwrap_or_default();
            let keys = trace.extract_link_keys();
            let replies: Vec<(BdAddr, LinkKey)> = scan_link_key_replies(&s.usb)
                .iter()
                .map(|m| {
                    (
                        BdAddr::from_le_bytes(m.addr_le),
                        LinkKey::from_le_bytes(m.key_le),
                    )
                })
                .collect();
            let phone_leak = s.phone_key.map(|k| (s.pc, k));
            let pc_leak = s.pc_key.map(|k| (s.phone, k));
            leaked &= s.phone_key.is_some()
                && s.phone_key == s.pc_key
                && !keys.is_empty()
                && keys.iter().all(|k| Some(*k) == phone_leak)
                && replies.iter().any(|r| Some(*r) == pc_leak);
            Captured {
                trace,
                usb: s.usb,
                keys,
                replies,
            }
        })
        .collect();
    let mut merged = HciTrace::new();
    let mut usb = Vec::new();
    let mut keys = Vec::new();
    let mut reply_keys = Vec::new();
    for copy in 0..DUMP_COPIES {
        for (index, c) in captured.iter().enumerate() {
            let offset = ((copy * sessions + index) as u64) * SESSION_SPAN_US;
            for e in c.trace.iter() {
                let at = Instant::from_micros(offset + e.timestamp.as_micros());
                merged.record(at, e.direction, e.packet.clone());
            }
            usb.extend_from_slice(&c.usb);
            keys.extend_from_slice(&c.keys);
            reply_keys.extend_from_slice(&c.replies);
        }
    }
    DumpCase {
        btsnoop: merged.to_btsnoop_bytes(),
        usb,
        keys,
        reply_keys,
        packets: merged.len(),
        leaked,
    }
}

// --- JSONL trace ------------------------------------------------------------

/// Page-blocking trial pairs (baseline + blocking) in the generated trace.
pub const TRACE_PAIRS: usize = 320;

/// The JSONL trace of observed Table II trial pairs `units`, one
/// `unit_start`-delimited unit per pair, cycling over the seven Table II
/// victims — the artifact `table2 --trace` writes and `blap-trace check`
/// reads. Consecutive ranges concatenate to the trace of their union.
pub fn trace_jsonl(seed: u64, units: Range<usize>) -> String {
    let victims = profiles::table2_profiles();
    let scenarios: Vec<PageBlockingScenario> = victims
        .iter()
        .enumerate()
        .map(|(i, victim)| {
            PageBlockingScenario::new(*victim, blap::runner::seed_for(seed, i as u64))
        })
        .collect();
    let mut out = String::new();
    for unit in units {
        let tracer = Tracer::new();
        let buffer = JsonlBuffer::new();
        tracer.attach(buffer.clone());
        tracer.emit(TraceEvent::UnitStart {
            unit: unit as u64,
            label: "trial_pair",
        });
        let scenario = &scenarios[unit % scenarios.len()];
        let _ = scenario.run_trial_pair_observed(unit / scenarios.len(), &tracer);
        out.push_str(&buffer.contents());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let a = dump_case(5, 4);
        let b = dump_case(5, 4);
        assert_eq!(a.btsnoop, b.btsnoop);
        assert_eq!(a.usb, b.usb);
        assert_ne!(dump_case(6, 4).btsnoop, a.btsnoop);
        let pins: Vec<Vec<u8>> = pin_cases(9).into_iter().map(|c| c.pin).collect();
        assert_eq!(
            pins,
            pin_cases(9).into_iter().map(|c| c.pin).collect::<Vec<_>>()
        );
        assert_eq!(trace_jsonl(3, 0..2), trace_jsonl(3, 0..2));
        let joined = trace_jsonl(3, 0..1) + &trace_jsonl(3, 1..3);
        assert_eq!(joined, trace_jsonl(3, 0..3));
    }

    #[test]
    fn planted_pins_cover_the_five_digit_space() {
        let cases = pin_cases(1);
        assert_eq!(cases.len() as u64, PIN_CASES);
        for (k, case) in cases.iter().enumerate() {
            assert_eq!(case.pin.len(), PIN_DIGITS as usize);
            let value: u64 = std::str::from_utf8(&case.pin).unwrap().parse().unwrap();
            assert_eq!(value / (PIN_SPACE / PIN_CASES), k as u64);
            assert!(case.capture.pin_matches(&case.pin));
        }
    }

    #[test]
    fn every_simulated_session_leaks_its_bond_key_on_both_taps() {
        for seed in [1, 2, 3] {
            let dump = dump_case(seed, 12);
            assert!(dump.leaked, "seed {seed}");
            assert_eq!(dump.reply_keys.len() % DUMP_COPIES, 0);
            let parsed = HciTrace::from_btsnoop_bytes(&dump.btsnoop).expect("valid dump");
            assert_eq!(parsed.extract_link_keys(), dump.keys);
            assert_eq!(parsed.len(), dump.packets);
        }
    }
}
