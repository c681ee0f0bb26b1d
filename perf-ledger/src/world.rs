//! Set-up: keys, the attestation infrastructure, the packaged
//! binaries with their policies, and a CAS fleet (a primary, and for
//! the follower workload a follower that tails it), all built through
//! the crates' public calls.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sinclave::signer::SignerConfig;
use sinclave::AppConfig;
use sinclave_cas::policy::{PolicyMode, SessionPolicy};
use sinclave_cas::store::CasStore;
use sinclave_cas::{follow, serve_replication, CasServer, FollowerHandle, ForwardLink};
use sinclave_crypto::aead::AeadKey;
use sinclave_crypto::rsa::{RsaPrivateKey, RsaPublicKey};
use sinclave_net::{Backoff, Network};
use sinclave_runtime::exec::SharedVolume;
use sinclave_runtime::scone::{package_app, PackagedApp, SconeHost, StartOptions};
use sinclave_runtime::{workload, ProgramImage};
use sinclave_sgx::attestation::AttestationService;
use sinclave_sgx::platform::Platform;
use sinclave_sgx::quote::QuotingEnclave;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The SigStruct signer's modulus: SGX signs enclaves with RSA-3072.
pub const SIGNER_KEY_BITS: usize = 3072;
/// Channel, quoting and attestation-service keys.
pub const INFRA_KEY_BITS: usize = 1024;
/// Modeled block-device flush of every CAS store (NVMe class).
pub const FLUSH_MICROS: u64 = 50;
/// Binaries of each kind registered at set-up: minimal embedded-entry
/// images and `workload::python_volume(1)` apps. Equal counts, so the
/// starts split evenly between the kinds; the split is a choice, not
/// measured traffic.
const BINARIES_PER_KIND: usize = 2;
/// Reactor connection budget: more than any run dials; serving ends
/// with `CasServer::shutdown`.
const CONNECTION_BUDGET: usize = 1 << 24;

/// A registered binary: the signed package, the configuration its
/// policy delivers, and the encrypted volume its starts mount.
pub struct Binary {
    pub config_id: String,
    pub packaged: PackagedApp,
    pub config: AppConfig,
    pub volume: Option<SharedVolume>,
}

impl Binary {
    /// Start options for one start of this binary against `addr`.
    pub fn start_options(&self, addr: &str, seed: u64) -> StartOptions {
        let opts = StartOptions::new(addr, &self.config_id).with_seed(seed);
        match &self.volume {
            Some(volume) => opts.with_volume(volume.clone()),
            None => opts,
        }
    }

    pub fn policy(&self, signer: &RsaPublicKey) -> SessionPolicy {
        SessionPolicy {
            config_id: self.config_id.clone(),
            expected_common: self.packaged.signed.common_measurement(),
            expected_mrsigner: signer.fingerprint(),
            min_isv_svn: 0,
            allow_debug: false,
            mode: PolicyMode::Singleton,
            config: self.config.clone(),
        }
    }
}

/// Everything but the CAS fleet: network, machine, keys, binaries.
pub struct Infra {
    pub network: Network,
    pub host: SconeHost,
    pub attestation_root: RsaPublicKey,
    pub signer_key: RsaPrivateKey,
    pub channel_key: RsaPrivateKey,
    pub binaries: Vec<Binary>,
    seed: u64,
}

impl Infra {
    pub fn new(seed: u64) -> Infra {
        let mut rng = StdRng::seed_from_u64(seed);
        let service =
            AttestationService::new(&mut rng, INFRA_KEY_BITS).expect("attestation service");
        let platform = Arc::new(Platform::new(&mut rng));
        service.register_platform(platform.manufacturing_record());
        let qe = Arc::new(
            QuotingEnclave::provision(platform.clone(), &service, &mut rng, INFRA_KEY_BITS)
                .expect("quoting enclave"),
        );
        let network = Network::new();
        let host = SconeHost::new(platform, qe, network.clone());
        let signer_key = RsaPrivateKey::generate(&mut rng, SIGNER_KEY_BITS).expect("signer key");
        let channel_key = RsaPrivateKey::generate(&mut rng, INFRA_KEY_BITS).expect("channel key");

        let mut binaries = Vec::new();
        for i in 0..BINARIES_PER_KIND {
            let image = ProgramImage::with_entry(
                &format!("svc-{i}"),
                &format!("secret api-key -> k\nenv DEPLOYMENT -> d\nprint svc-{i}-done"),
                4 + 2 * i as u64,
            )
            .sinclave_aware();
            let config = AppConfig {
                entry: "embedded".into(),
                env: vec![("DEPLOYMENT".into(), format!("bench-{i}"))],
                secrets: vec![("api-key".into(), format!("sk-bench-{i}").into_bytes())],
                ..AppConfig::default()
            };
            binaries.push(Binary {
                config_id: format!("svc-{i}"),
                packaged: package_app(&image, &signer_key, &SignerConfig::default())
                    .expect("package"),
                config,
                volume: None,
            });
        }
        for i in 0..BINARIES_PER_KIND {
            // The volume key reaches the enclave only through the policy
            // config, and the entry script lives on the encrypted volume.
            let app = workload::python_volume(1);
            let mut image = app.image.sinclave_aware();
            image.name = format!("{}-app{i}", image.name);
            binaries.push(Binary {
                config_id: format!("python-{i}"),
                packaged: package_app(&image, &signer_key, &SignerConfig::default())
                    .expect("package"),
                config: app.config,
                volume: Some(app.volume),
            });
        }
        Infra {
            network,
            host,
            attestation_root: service.root_public_key().clone(),
            signer_key,
            channel_key,
            binaries,
            seed,
        }
    }

    /// A CAS node with its own store (flush modeled at
    /// [`FLUSH_MICROS`]) and every binary's policy — policies are
    /// configuration, so every node gets them; they do not replicate.
    pub fn node(&self, store_seed: u64) -> Arc<CasServer> {
        let mut key = [0u8; 32];
        StdRng::seed_from_u64(self.seed ^ store_seed).fill_bytes(&mut key);
        let node = CasServer::new(
            self.channel_key.clone(),
            self.signer_key.clone(),
            self.attestation_root.clone(),
            CasStore::create(AeadKey::new(key)),
        );
        node.store().set_flush_latency_micros(FLUSH_MICROS);
        for binary in &self.binaries {
            node.add_policy(binary.policy(self.signer_key.public_key())).expect("policy");
        }
        node
    }

    /// Starts a fleet serving clients at `<prefix>:443` from a reactor
    /// (1 event loop, 2 compute workers). With `with_follower`, a
    /// follower tails the primary's journal, serves clients at
    /// `<prefix>-follower:443` and forwards writes over a pinned link.
    /// Returns once every binary has been started once through the
    /// client-facing node (warming the issuer's caches and the forward
    /// link) and the follower has applied the primary's whole journal.
    pub fn start_fleet(&self, prefix: &str, with_follower: bool) -> Fleet {
        let seed = self.seed;
        let primary = self.node(1);
        let primary_addr = format!("{prefix}:443");
        let mut serving = vec![primary.serve_reactor_with(
            &self.network,
            &primary_addr,
            CONNECTION_BUDGET,
            seed,
            1,
            2,
        )];
        let follower = with_follower.then(|| {
            let repl_addr = format!("{prefix}-repl:7443");
            // One subscriber stream and one forward session.
            serving.push(serve_replication(&primary, &self.network, &repl_addr, 2, seed ^ 0x10));
            let node = self.node(2);
            let pin = self.channel_key.public_key().fingerprint();
            node.set_forward_link(Some(ForwardLink::new(
                self.network.clone(),
                &repl_addr,
                pin,
                seed ^ 0x11,
            )));
            let pump = follow(
                node.clone(),
                self.network.clone(),
                repl_addr,
                seed ^ 0x12,
                Backoff::new(Duration::from_millis(2), Duration::from_millis(20)),
            );
            let addr = format!("{prefix}-follower:443");
            serving.push(node.serve_reactor_with(
                &self.network,
                &addr,
                CONNECTION_BUDGET,
                seed ^ 0x13,
                1,
                2,
            ));
            Follower { node, pump, addr }
        });
        let fleet = Fleet { primary, primary_addr, follower, serving };
        for (i, binary) in self.binaries.iter().enumerate() {
            let opts = binary.start_options(fleet.client_addr(), seed ^ (0xa0 + i as u64));
            self.host.start_sinclave(&binary.packaged, &opts).expect("warm-up start");
        }
        fleet.wait_caught_up();
        fleet
    }
}

/// A follower node, its journal pump, and its client address.
pub struct Follower {
    pub node: Arc<CasServer>,
    pump: FollowerHandle,
    pub addr: String,
}

/// A running CAS fleet.
pub struct Fleet {
    pub primary: Arc<CasServer>,
    pub primary_addr: String,
    pub follower: Option<Follower>,
    serving: Vec<JoinHandle<()>>,
}

impl Fleet {
    /// Where clients are sent: the follower when there is one.
    pub fn client_addr(&self) -> &str {
        self.follower.as_ref().map_or(&self.primary_addr, |f| &f.addr)
    }

    /// Blocks until the follower (if any) has applied everything the
    /// primary has journaled.
    fn wait_caught_up(&self) {
        let Some(follower) = &self.follower else { return };
        let target = self.primary.journal_sequence();
        let deadline = Instant::now() + Duration::from_secs(30);
        while follower.node.journal_sequence() < target {
            assert!(Instant::now() < deadline, "follower did not catch up");
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Drains every node and joins every serving thread.
    pub fn stop(self) {
        if let Some(follower) = self.follower {
            let _ = follower.node.shutdown();
            follower.pump.stop();
        }
        let _ = self.primary.shutdown();
        for handle in self.serving {
            let _ = handle.join();
        }
    }
}
