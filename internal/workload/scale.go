package workload

import (
	"fmt"
	"strings"
)

// Scale selects a parameter set for the benchmark suite.
type Scale int

const (
	// ScaleTest is a tiny configuration for unit tests: structure intact,
	// seconds of simulation at most.
	ScaleTest Scale = iota
	// ScaleSmall is roughly an eighth of the paper's data sets — enough
	// to exceed the caches and exercise every effect, small enough for
	// quick experiment iterations and Go benchmarks.
	ScaleSmall
	// ScalePaper is the paper's Table 1 configuration.
	ScalePaper
)

func (s Scale) String() string {
	switch s {
	case ScaleTest:
		return "test"
	case ScaleSmall:
		return "small"
	case ScalePaper:
		return "paper"
	default:
		return "Scale(?)"
	}
}

// ParseScale parses a scale name (test, small or paper), ignoring case and
// surrounding space.
func ParseScale(s string) (Scale, error) {
	for _, sc := range []Scale{ScaleTest, ScaleSmall, ScalePaper} {
		if strings.EqualFold(strings.TrimSpace(s), sc.String()) {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("unknown scale %q (want test, small or paper)", s)
}

// Radix returns the RADIX parameters at this scale (paper: -n524288 -r2048
// -m1048576).
func (s Scale) Radix() RadixParams {
	switch s {
	case ScalePaper:
		return RadixParams{Keys: 524288, Radix: 2048, MaxKey: 1 << 20, Seed: 0x7AD1}
	case ScaleSmall:
		return RadixParams{Keys: 65536, Radix: 256, MaxKey: 1 << 20, Seed: 0x7AD1}
	default:
		return RadixParams{Keys: 4096, Radix: 64, MaxKey: 1 << 12, Seed: 0x7AD1}
	}
}

// FFT returns the FFT parameters at this scale (paper: -m20 -t, a 2^20
// point transform on a 1024x1024 matrix).
func (s Scale) FFT() FFTParams {
	switch s {
	case ScalePaper:
		return FFTParams{LogPoints: 20, Seed: 0xFF7}
	case ScaleSmall:
		return FFTParams{LogPoints: 16, Seed: 0xFF7}
	default:
		return FFTParams{LogPoints: 10, Seed: 0xFF7}
	}
}

// FMM returns the FMM parameters at this scale (paper: 16384 particles).
func (s Scale) FMM() FMMParams {
	switch s {
	case ScalePaper:
		return FMMParams{Particles: 16384, ParticlesPerLeaf: 10, Timesteps: 2, Seed: 0xF33}
	case ScaleSmall:
		return FMMParams{Particles: 4096, ParticlesPerLeaf: 10, Timesteps: 2, Seed: 0xF33}
	default:
		return FMMParams{Particles: 256, ParticlesPerLeaf: 8, Timesteps: 1, Seed: 0xF33}
	}
}

// Ocean returns the OCEAN parameters at this scale (paper: a 258x258 grid).
func (s Scale) Ocean() OceanParams {
	switch s {
	case ScalePaper:
		return OceanParams{N: 258, Timesteps: 2, RelaxSweeps: 2, Seed: 0x0CEA}
	case ScaleSmall:
		return OceanParams{N: 130, Timesteps: 2, RelaxSweeps: 2, Seed: 0x0CEA}
	default:
		return OceanParams{N: 34, Timesteps: 1, RelaxSweeps: 2, Seed: 0x0CEA}
	}
}

// Raytrace returns the RAYTRACE parameters at this scale (paper: the "car"
// scene).
func (s Scale) Raytrace() RaytraceParams {
	switch s {
	case ScalePaper:
		return RaytraceParams{Image: 256, SceneMB: 32, StackAlign: 32 << 10, Seed: 0x7A1}
	case ScaleSmall:
		return RaytraceParams{Image: 128, SceneMB: 16, StackAlign: 32 << 10, Seed: 0x7A1}
	default:
		return RaytraceParams{Image: 16, SceneMB: 1, StackAlign: 32 << 10, Seed: 0x7A1}
	}
}

// Barnes returns the BARNES parameters at this scale (paper: 16384
// particles).
func (s Scale) Barnes() BarnesParams {
	switch s {
	case ScalePaper:
		return BarnesParams{Bodies: 16384, Timesteps: 2, Seed: 0xBA4}
	case ScaleSmall:
		return BarnesParams{Bodies: 4096, Timesteps: 2, Seed: 0xBA4}
	default:
		return BarnesParams{Bodies: 256, Timesteps: 1, Seed: 0xBA4}
	}
}

// AMSetBits returns the attraction-memory sets-per-node (log2) matching
// this scale, following the paper's methodology of scaling the attraction
// memory with the data sets (§5.1: "we have to scale down the sizes of
// attraction memories, caches, and TLBs"). Paper scale keeps the paper's
// 4 MB per node; small uses 1 MB; test 512 KB.
func (s Scale) AMSetBits() uint {
	switch s {
	case ScalePaper:
		return 13 // 8192 sets * 4 ways * 128 B = 4 MB
	case ScaleSmall:
		return 11 // 1 MB per node
	default:
		return 10 // 512 KB per node
	}
}
