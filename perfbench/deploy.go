package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"socialchain/internal/core"
	"socialchain/internal/detect"
	"socialchain/internal/fabric"
	"socialchain/internal/msp"
	"socialchain/internal/obs"
	"socialchain/internal/sim"
	"socialchain/internal/storage"
)

// deployConfig is the deployment every workload runs on: one process,
// 4 peers, 1 channel, 2 IPFS nodes, in-process transport, and program
// defaults for everything not named here.
type deployConfig struct {
	seed int64
	// lan injects sim.LANLatency (50-300 us per message) on the blockchain
	// and IPFS networks; false leaves zero injected delay.
	lan bool
	// dir, when set, makes the deployment durable: DataDir there, the LSM
	// persist engine and fsync on every acknowledged write.
	dir string
	// traced hands the fabric a metrics registry so the per-stage
	// tx_stage_seconds histograms can be read back.
	traced bool
}

// deployment is one running framework.
type deployment struct {
	cfg deployConfig
	fw  *core.Framework
	reg *obs.Registry // nil when untraced
}

// sources are the two data sources of the paper's mix: a trusted traffic
// camera and an untrusted crowd contributor. Their keys derive from the
// seed, so inputs signed before set-up verify against the registered
// identities.
type sources struct {
	cam, crowd *msp.Signer
}

func newSources(seed int64) sources {
	s := fmt.Sprint(seed)
	return sources{
		cam:   msp.NewSignerFromSeed("perfbench-cam-"+s, "city", "cam-1", msp.RoleTrustedSource),
		crowd: msp.NewSignerFromSeed("perfbench-crowd-"+s, "crowd", "contributor-1", msp.RoleUntrustedSource),
	}
}

// coreConfig translates c into the framework's configuration.
func (c deployConfig) coreConfig() core.Config {
	cfg := core.Config{
		Fabric:    fabric.Config{NumPeers: 4, NumChannels: 1},
		IPFSNodes: 2,
	}
	if c.lan {
		rng := sim.NewRNG(c.seed)
		cfg.Fabric.Latency = sim.LANLatency(rng)
		cfg.IPFSLatency = sim.LANLatency(rng.Fork())
	}
	if c.dir != "" {
		cfg.DataDir = c.dir
		cfg.StorageEngine = storage.EnginePersist
		cfg.StorageDurability = storage.DurabilityAlways
	}
	return cfg
}

// deploy starts a framework and registers both sources.
func deploy(c deployConfig, src sources) (*deployment, error) {
	cfg := c.coreConfig()
	d := &deployment{cfg: c}
	if c.traced {
		d.reg = obs.NewRegistry()
		cfg.Fabric.Obs = d.reg
	}
	fw, err := core.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	d.fw = fw
	if err := fw.RegisterSource(src.cam.Identity, true); err != nil {
		fw.Close()
		return nil, fmt.Errorf("register camera: %w", err)
	}
	if err := fw.RegisterSource(src.crowd.Identity, false); err != nil {
		fw.Close()
		return nil, fmt.Errorf("register crowd source: %w", err)
	}
	return d, nil
}

// close shuts the deployment down and reports the first close error.
func (d *deployment) close() error {
	d.fw.Close()
	return d.fw.CloseErr()
}

// settle waits until no LSM store of any peer has compaction work queued,
// then forces a garbage collection, so a timed phase starts from a quiet
// process.
func (d *deployment) settle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		backlog := 0
		for _, ch := range d.fw.Net.Channels() {
			for _, p := range ch.Peers() {
				if st, ok := p.State().StorageStats(); ok {
					backlog += st.CompactionBacklog
				}
				if st, ok := p.History().StorageStats(); ok {
					backlog += st.CompactionBacklog
				}
			}
		}
		if backlog == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("settle: compaction backlog %d after %v", backlog, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	runtime.GC()
	return nil
}

// setupRuns builds a deployment `times` times, each from scratch, and
// keeps the last one; the caller closes it and removes its data
// directory. A non-empty dataBase makes every deployment durable, in a
// fresh directory under dataBase. prepare runs inside the timed set-up
// (preload and settle). Set-up times come back in order; their median is
// the setup_s metric.
func setupRuns(times int, c deployConfig, src sources, dataBase string,
	prepare func(*deployment) error) (*deployment, []time.Duration, error) {
	var d *deployment
	var took []time.Duration
	for k := 0; k < times; k++ {
		if d != nil {
			err := d.close()
			if rerr := os.RemoveAll(d.cfg.dir); err == nil {
				err = rerr
			}
			if err != nil {
				return nil, nil, fmt.Errorf("close set-up %d: %w", k-1, err)
			}
		}
		cfg := c
		if dataBase != "" {
			if err := os.MkdirAll(dataBase, 0o755); err != nil {
				return nil, nil, err
			}
			dir, err := os.MkdirTemp(dataBase, "deployment-")
			if err != nil {
				return nil, nil, err
			}
			cfg.dir = dir
		}
		runtime.GC()
		start := time.Now()
		var err error
		d, err = deploy(cfg, src)
		if err == nil && prepare != nil {
			if err = prepare(d); err != nil {
				_ = d.close()
			}
		}
		if err != nil {
			_ = os.RemoveAll(cfg.dir)
			return nil, nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		took = append(took, time.Since(start))
	}
	return d, took, nil
}

// input is one source-signed payload and its extracted metadata, made
// before any timing starts.
type input struct {
	signed msp.SignedMessage
	meta   detect.MetadataRecord
}

// inputGen makes deterministic inputs: payload bytes, frame fields and
// detections all derive from the seed.
type inputGen struct {
	rng *sim.RNG
	det *detect.Detector
	n   int
}

func newInputGen(seed int64) *inputGen {
	return &inputGen{rng: sim.NewRNG(seed), det: detect.NewDetector(seed)}
}

// make builds one input of size bytes signed by src.
func (g *inputGen) make(src *msp.Signer, size int) input {
	idx := g.n
	g.n++
	video := fmt.Sprintf("%s-v%d", src.Identity.Name, idx/100)
	f := &detect.Frame{
		ID:         detect.FrameIDFor(video, idx),
		VideoID:    video,
		CameraID:   src.Identity.Name,
		Index:      idx,
		Platform:   detect.PlatformStatic,
		Encoding:   detect.EncodingJPEG,
		Width:      1280,
		Height:     720,
		Data:       g.rng.Bytes(size),
		Timestamp:  time.Unix(1_700_000_000, 0).Add(time.Duration(idx) * time.Second),
		Location:   detect.GeoPoint{Latitude: 12.97, Longitude: 77.59},
		LightLevel: 1,
	}
	meta, _ := g.det.ExtractMetadata(f)
	return input{signed: msp.NewSignedMessage(src, f.Data), meta: meta}
}
