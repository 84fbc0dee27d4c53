//! The server under test: an in-process `espresso-server` driven over
//! loopback by one blocking client connection.

use std::path::Path;
use std::time::Instant;

use espresso_core::HeapStats;
use espresso_nvm::NvmStats;
use espresso_server::protocol::{decode_scan_items, Request, Response, Status, TxnOp};
use espresso_server::server::{Server, ServerConfig, ServerHandle};
use espresso_server::Client;

use crate::drive::{Page, Target};
use crate::gen::Spec;

/// A running server plus the benchmark's client connection to it.
pub struct ServerTarget {
    config: ServerConfig,
    handle: Option<ServerHandle>,
    client: Option<Client>,
}

/// Server defaults except the workload's shard sizes.
fn config(dir: &Path, spec: Spec) -> ServerConfig {
    ServerConfig {
        shards: spec.shards,
        shard_bytes: spec.shard_bytes,
        dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

fn refusal(resp: &Response) -> String {
    format!(
        "{:?}: {}",
        resp.status,
        String::from_utf8_lossy(&resp.payload)
    )
}

impl ServerTarget {
    /// Starts a server on `dir` (creating the heap if the directory has
    /// none) and connects.
    ///
    /// # Errors
    ///
    /// Server start or connect errors.
    pub fn start(dir: &Path, spec: Spec) -> Result<ServerTarget, String> {
        let config = config(dir, spec);
        let handle = Server::start(config.clone()).map_err(|e| format!("server start: {e}"))?;
        let client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        Ok(ServerTarget {
            config,
            handle: Some(handle),
            client: Some(client),
        })
    }

    /// Closes the connection and stops the server, waiting for its final
    /// commit.
    pub fn stop(&mut self) {
        self.client = None;
        if let Some(handle) = self.handle.take() {
            handle.stop_and_wait();
        }
    }

    /// Stops the server, starts it again on the same directory and
    /// reads `probe` back: the restart time, in seconds, until that first
    /// verified GET.
    ///
    /// # Errors
    ///
    /// Restart errors, or a probe answer other than `value`.
    pub fn restart(&mut self, probe: &str, value: &[u8]) -> Result<f64, String> {
        let begin = Instant::now();
        self.stop();
        let handle =
            Server::start(self.config.clone()).map_err(|e| format!("server restart: {e}"))?;
        self.client = Some(Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?);
        self.handle = Some(handle);
        let got = self.get(probe)?;
        let secs = begin.elapsed().as_secs_f64();
        if got.as_deref() != Some(value) {
            return Err(format!(
                "restart probe {probe:?} read back a different value"
            ));
        }
        Ok(secs)
    }

    fn request(&mut self, req: &Request) -> Response {
        self.client
            .as_mut()
            .expect("connected")
            .request(req)
            .unwrap_or_else(|e| panic!("server connection failed: {e:?}"))
    }

    fn shards(&self) -> &espresso_core::ShardedHeap {
        self.handle.as_ref().expect("running").heap()
    }
}

impl Drop for ServerTarget {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Target for ServerTarget {
    fn get(&mut self, key: &str) -> Result<Option<Vec<u8>>, String> {
        let resp = self.request(&Request::Get {
            key: key.to_string(),
        });
        match resp.status {
            Status::Ok => Ok(Some(resp.payload)),
            Status::NotFound => Ok(None),
            _ => Err(refusal(&resp)),
        }
    }

    fn fget(&mut self, key: &str, index: u8) -> Result<Option<u64>, String> {
        let resp = self.request(&Request::FGet {
            key: key.to_string(),
            index,
        });
        match resp.status {
            Status::Ok => {
                let word: [u8; 8] = resp
                    .payload
                    .as_slice()
                    .try_into()
                    .map_err(|_| "FGET payload is not 8 bytes".to_string())?;
                Ok(Some(u64::from_be_bytes(word)))
            }
            Status::NotFound => Ok(None),
            _ => Err(refusal(&resp)),
        }
    }

    fn set(&mut self, key: &str, value: &[u8]) -> Result<(), String> {
        let resp = self.request(&Request::Set {
            key: key.to_string(),
            value: value.to_vec(),
        });
        match resp.status {
            Status::Ok => Ok(()),
            _ => Err(refusal(&resp)),
        }
    }

    fn txn(&mut self, batch: &[(&str, &[u8])]) -> Result<(), String> {
        let ops = batch
            .iter()
            .map(|(k, v)| TxnOp::Set {
                key: (*k).to_string(),
                value: v.to_vec(),
            })
            .collect();
        let resp = self.request(&Request::Txn { ops });
        match resp.status {
            Status::Ok => Ok(()),
            _ => Err(refusal(&resp)),
        }
    }

    fn scan(&mut self, shard: usize, start: &str, limit: u32) -> Result<Page, String> {
        let resp = self.request(&Request::Scan {
            shard: shard as u16,
            start: start.to_string(),
            end: String::new(),
            limit,
        });
        match resp.status {
            Status::Ok => decode_scan_items(&resp.payload)
                .map(|(t, items)| (items, t))
                .map_err(|e| format!("bad SCAN payload: {e:?}")),
            _ => Err(refusal(&resp)),
        }
    }

    fn device_stats(&self) -> NvmStats {
        let heap = self.shards();
        (0..heap.num_shards())
            .map(|i| heap.handle(i).with(|p| p.device().stats()))
            .fold(NvmStats::default(), crate::sum_stats)
    }

    fn heap_stats(&self) -> HeapStats {
        self.shards().heap_stats()
    }
}
