//! The content-addressed compile cache of the execution service.
//!
//! [`ArtifactCache`] keys compiled [`Artifacts`] on
//! `fnv1a128(source ‖ CompilerOptions::fingerprint())`, so a repeated
//! `compile_source` of identical Fortran under identical options (and the
//! same [`DeviceModel`](ftn_fpga::DeviceModel)) is served from memory — or,
//! with [`ArtifactCache::with_disk`], from a JSON layer that survives the
//! process.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use ftn_core::{Artifacts, CompileError, Compiler, CompilerOptions};
use ftn_fpga::Bitstream;
use ftn_mlir::PassReport;
use serde::{Deserialize, Serialize};

/// 128-bit FNV-1a over `data`, rendered as 32 hex chars.
pub fn fnv1a128_hex(data: &[u8]) -> String {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut h = OFFSET;
    for &b in data {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    format!("{h:032x}")
}

/// Hit/miss counters of an [`ArtifactCache`].
#[derive(Clone, Debug, Default, Serialize)]
pub struct CacheStats {
    /// Served from the in-memory layer.
    pub hits: u64,
    /// Served from the on-disk layer (also populates the memory layer).
    pub disk_hits: u64,
    /// Required a fresh compile / parse.
    pub misses: u64,
    /// Entries written to the disk layer.
    pub disk_stores: u64,
}

/// On-disk mirror of [`Artifacts`] (pass reports flattened to serializable
/// form; `ftn-mlir` has no serde dependency).
#[derive(Serialize, Deserialize)]
struct ArtifactsDto {
    fir_text: String,
    host_module_text: String,
    device_module_text: String,
    host_cpp: String,
    llvm_ir: String,
    llvm7_ir: String,
    bitstream: Bitstream,
    pass_reports: Vec<PassReportDto>,
}

#[derive(Serialize, Deserialize)]
struct PassReportDto {
    name: String,
    micros: u64,
    ops_before: u64,
    ops_after: u64,
}

impl ArtifactsDto {
    fn from_artifacts(a: &Artifacts) -> Self {
        ArtifactsDto {
            fir_text: a.fir_text.clone(),
            host_module_text: a.host_module_text.clone(),
            device_module_text: a.device_module_text.clone(),
            host_cpp: a.host_cpp.clone(),
            llvm_ir: a.llvm_ir.clone(),
            llvm7_ir: a.llvm7_ir.clone(),
            bitstream: a.bitstream.clone(),
            pass_reports: a
                .pass_reports
                .iter()
                .map(|r| PassReportDto {
                    name: r.name.clone(),
                    micros: r.micros.min(u64::MAX as u128) as u64,
                    ops_before: r.ops_before as u64,
                    ops_after: r.ops_after as u64,
                })
                .collect(),
        }
    }

    fn into_artifacts(self) -> Artifacts {
        Artifacts {
            fir_text: self.fir_text,
            host_module_text: self.host_module_text,
            device_module_text: self.device_module_text,
            host_cpp: self.host_cpp,
            llvm_ir: self.llvm_ir,
            llvm7_ir: self.llvm7_ir,
            bitstream: self.bitstream,
            pass_reports: self
                .pass_reports
                .into_iter()
                .map(|r| PassReport {
                    name: r.name,
                    micros: r.micros as u128,
                    ops_before: r.ops_before as usize,
                    ops_after: r.ops_after as usize,
                })
                .collect(),
        }
    }
}

/// See module docs.
pub struct ArtifactCache {
    mem: Mutex<HashMap<String, Arc<Artifacts>>>,
    disk: Option<PathBuf>,
    stats: Mutex<CacheStats>,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache::new()
    }
}

impl ArtifactCache {
    /// In-memory cache only.
    pub fn new() -> Self {
        ArtifactCache {
            mem: Mutex::new(HashMap::new()),
            disk: None,
            stats: Mutex::new(CacheStats::default()),
        }
    }

    /// Memory cache backed by a JSON directory layer at `dir`.
    pub fn with_disk(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ArtifactCache {
            mem: Mutex::new(HashMap::new()),
            disk: Some(dir),
            stats: Mutex::new(CacheStats::default()),
        })
    }

    /// The content address of `(source, options)`.
    pub fn key(source: &str, options: &CompilerOptions) -> String {
        let mut data = Vec::with_capacity(source.len() + 64);
        data.extend_from_slice(source.as_bytes());
        data.push(0);
        data.extend_from_slice(options.fingerprint().as_bytes());
        fnv1a128_hex(&data)
    }

    /// Compile `source` under `options`, serving from cache when the content
    /// address matches.
    pub fn get_or_compile(
        &self,
        options: &CompilerOptions,
        source: &str,
    ) -> Result<Arc<Artifacts>, CompileError> {
        self.get_or_compile_with_hit(options, source)
            .map(|(a, _)| a)
    }

    /// Like [`ArtifactCache::get_or_compile`], also reporting whether the
    /// artifacts came from the cache (memory or disk) rather than a fresh
    /// compile — per-request, unlike the global [`ArtifactCache::stats`].
    pub fn get_or_compile_with_hit(
        &self,
        options: &CompilerOptions,
        source: &str,
    ) -> Result<(Arc<Artifacts>, bool), CompileError> {
        let key = Self::key(source, options);
        if let Some(hit) = self.mem.lock().unwrap().get(&key).cloned() {
            self.stats.lock().unwrap().hits += 1;
            return Ok((hit, true));
        }
        if let Some(artifacts) = self.load_from_disk(&key) {
            let artifacts = Arc::new(artifacts);
            self.mem.lock().unwrap().insert(key, Arc::clone(&artifacts));
            self.stats.lock().unwrap().disk_hits += 1;
            return Ok((artifacts, true));
        }
        self.stats.lock().unwrap().misses += 1;
        let artifacts = Arc::new(Compiler::new(options.clone()).compile_source(source)?);
        self.store_to_disk(&key, &artifacts);
        self.mem.lock().unwrap().insert(key, Arc::clone(&artifacts));
        Ok((artifacts, false))
    }

    fn load_from_disk(&self, key: &str) -> Option<Artifacts> {
        let dir = self.disk.as_ref()?;
        let text = std::fs::read_to_string(dir.join(format!("{key}.json"))).ok()?;
        let dto: ArtifactsDto = serde_json::from_str(&text).ok()?;
        Some(dto.into_artifacts())
    }

    fn store_to_disk(&self, key: &str, artifacts: &Artifacts) {
        let Some(dir) = self.disk.as_ref() else {
            return;
        };
        let dto = ArtifactsDto::from_artifacts(artifacts);
        if let Ok(json) = serde_json::to_string(&dto) {
            if std::fs::write(dir.join(format!("{key}.json")), json).is_ok() {
                self.stats.lock().unwrap().disk_stores += 1;
            }
        }
    }

    /// Hit/miss/disk counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats.lock().unwrap().clone()
    }

    /// Entries in the memory layer.
    pub fn len(&self) -> usize {
        self.mem.lock().unwrap().len()
    }

    /// Whether the memory layer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
