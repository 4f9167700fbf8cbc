//! The bitstream artifact ("xclbin"): a self-contained, serializable record of
//! synthesized kernels — their IR (generic-form text, re-parsed at load time),
//! loop schedules, and resource reports.

use serde::{Deserialize, Serialize};

use ftn_mlir::{parse_module, Ir, OpId};

use crate::device_model::ResourceUsage;
pub use crate::schedule::LoopInfo as LoopSchedule;

/// Magic bytes framing a serialized bitstream.
pub const BITSTREAM_MAGIC: &[u8; 8] = b"FTNXCLB1";

/// One synthesized kernel.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct KernelImage {
    /// The kernel's symbol name in the device module.
    pub name: String,
    /// Loop schedules (II, depth, unroll) computed at synthesis.
    pub schedule: Vec<LoopSchedule>,
    /// Kernel-only resources (shell excluded).
    pub resources: ResourceUsage,
    /// MAC pairs the backend's pattern recognizer accepted.
    pub recognized_macs: usize,
}

/// A "programmed device" image.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Bitstream {
    /// Target device name (e.g. "AMD Alveo U280").
    pub device_name: String,
    /// Achieved kernel clock.
    pub frequency_mhz: f64,
    /// The device module in generic MLIR text (all kernels).
    pub module_text: String,
    /// One image per synthesized kernel.
    pub kernels: Vec<KernelImage>,
}

impl Bitstream {
    /// The image of kernel `name`, if present.
    pub fn kernel(&self, name: &str) -> Option<&KernelImage> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// Total configured kernel resources (sum over kernels).
    pub fn kernel_resources(&self) -> ResourceUsage {
        let mut total = ResourceUsage::default();
        for k in &self.kernels {
            total.add(&k.resources);
        }
        total
    }

    /// Re-materialize the device module into `ir`.
    pub fn instantiate(&self, ir: &mut Ir) -> Result<OpId, String> {
        parse_module(ir, &self.module_text).map_err(|e| e.to_string())
    }

    /// Pretty-printed JSON form (the `.xclbin.json` artifact).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bitstream serializes")
    }

    /// Parse the JSON form produced by [`Bitstream::to_json`].
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// Framed binary form: magic + big-endian u64 length + JSON payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let json = self.to_json();
        let mut buf = Vec::with_capacity(json.len() + 16);
        buf.extend_from_slice(BITSTREAM_MAGIC);
        buf.extend_from_slice(&(json.len() as u64).to_be_bytes());
        buf.extend_from_slice(json.as_bytes());
        buf
    }

    /// Parse the framed binary form produced by [`Bitstream::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Result<Self, String> {
        let too_short = || "bitstream too short".to_string();
        let (magic, rest) = data.split_first_chunk::<8>().ok_or_else(too_short)?;
        let (len, payload) = rest.split_first_chunk::<8>().ok_or_else(too_short)?;
        if magic != BITSTREAM_MAGIC {
            return Err("bad bitstream magic".into());
        }
        let len = u64::from_be_bytes(*len);
        // The length is outside input: it only ever selects a prefix of what
        // is actually there.
        let Some(json) = usize::try_from(len).ok().and_then(|len| payload.get(..len)) else {
            return Err("truncated bitstream payload".into());
        };
        let json = std::str::from_utf8(json).map_err(|e| e.to_string())?;
        Self::from_json(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Bitstream {
        Bitstream {
            device_name: "AMD Alveo U280".into(),
            frequency_mhz: 300.0,
            module_text: "\"builtin.module\"() ({\n}) {target = \"fpga\"} : () -> ()\n".into(),
            kernels: vec![KernelImage {
                name: "saxpy_kernel0".into(),
                schedule: vec![],
                resources: ResourceUsage {
                    lut: 2_630,
                    ff: 4_000,
                    bram: 4,
                    uram: 0,
                    dsp: 5,
                },
                recognized_macs: 0,
            }],
        }
    }

    #[test]
    fn json_roundtrip() {
        let b = sample();
        let j = b.to_json();
        let b2 = Bitstream::from_json(&j).unwrap();
        assert_eq!(b2.kernels.len(), 1);
        assert_eq!(b2.kernel("saxpy_kernel0").unwrap().resources.lut, 2_630);
    }

    #[test]
    fn bytes_roundtrip_with_framing() {
        let b = sample();
        let bytes = b.to_bytes();
        assert_eq!(&bytes[..8], BITSTREAM_MAGIC);
        let b2 = Bitstream::from_bytes(&bytes).unwrap();
        assert_eq!(b2.device_name, "AMD Alveo U280");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut raw = sample().to_bytes();
        raw[0] = b'X';
        assert!(Bitstream::from_bytes(&raw).is_err());
    }

    #[test]
    fn truncated_or_overlong_frames_are_errors_not_panics() {
        let raw = sample().to_bytes();
        // Header cut short: every prefix below magic + length.
        for cut in 0..16 {
            assert_eq!(
                Bitstream::from_bytes(&raw[..cut]).unwrap_err(),
                "bitstream too short",
                "prefix of {cut} bytes"
            );
        }
        // Payload cut short, by one byte and down to nothing.
        for cut in [raw.len() - 1, 16] {
            assert_eq!(
                Bitstream::from_bytes(&raw[..cut]).unwrap_err(),
                "truncated bitstream payload"
            );
        }
        // A length field far beyond what follows (and beyond any `usize` on
        // a 32-bit host) is rejected before it sizes or indexes anything.
        for len in [raw.len() as u64, u64::from(u32::MAX) + 1, u64::MAX] {
            let mut lying = raw.clone();
            lying[8..16].copy_from_slice(&len.to_be_bytes());
            assert_eq!(
                Bitstream::from_bytes(&lying).unwrap_err(),
                "truncated bitstream payload",
                "length field {len}"
            );
        }
    }

    #[test]
    fn instantiate_parses_module_text() {
        let b = sample();
        let mut ir = Ir::new();
        let m = b.instantiate(&mut ir).unwrap();
        assert!(ir.op_is(m, "builtin.module"));
    }
}
