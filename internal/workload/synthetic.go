package workload

// Synthetic primitive generators. They are the calibration workloads for
// the baseline-simulator comparisons (Table 3 traces) and the unit tests'
// ground truth, and they compose into the database models.

// UniformConfig parameterizes a uniform random generator.
type UniformConfig struct {
	NumCPUs       int
	FootprintByte int64
	WriteFraction float64
	Seed          uint64
}

// Uniform emits uniformly random references over its footprint, the
// worst-case cache workload.
type Uniform struct {
	cfg    UniformConfig
	region Region
	r      *RNG
	cpu    int
}

// NewUniform builds a uniform generator over a fresh layout.
func NewUniform(cfg UniformConfig) *Uniform {
	if cfg.NumCPUs <= 0 {
		panic("workload: NumCPUs must be positive")
	}
	l := NewLayout()
	return &Uniform{cfg: cfg, region: l.Region(cfg.FootprintByte), r: NewRNG(cfg.Seed)}
}

// Name implements Generator.
func (u *Uniform) Name() string { return "uniform" }

// Footprint implements Generator.
func (u *Uniform) Footprint() int64 { return u.region.Size }

// Next implements Generator.
func (u *Uniform) Next() (Ref, bool) {
	cpu := nextCPU(&u.cpu, u.cfg.NumCPUs)
	return Ref{
		Addr:   u.region.Base + uint64(u.r.Intn(u.region.Size)&^7),
		Write:  u.r.Chance(u.cfg.WriteFraction),
		CPU:    cpu,
		Instrs: 3,
	}, true
}

// StrideConfig parameterizes a sequential/strided generator.
type StrideConfig struct {
	NumCPUs       int
	FootprintByte int64
	Stride        int64
	WriteFraction float64
	Seed          uint64
}

// Stride sweeps each CPU through its own partition with a fixed stride,
// the best-case streaming workload (pure spatial locality, zero reuse
// below the footprint).
type Stride struct {
	cfg    StrideConfig
	region Region
	r      *RNG
	cpu    int
	pos    []int64
}

// NewStride builds a strided generator; stride defaults to 128.
func NewStride(cfg StrideConfig) *Stride {
	if cfg.NumCPUs <= 0 {
		panic("workload: NumCPUs must be positive")
	}
	if cfg.Stride <= 0 {
		cfg.Stride = 128
	}
	l := NewLayout()
	return &Stride{
		cfg:    cfg,
		region: l.Region(cfg.FootprintByte),
		r:      NewRNG(cfg.Seed),
		pos:    make([]int64, cfg.NumCPUs),
	}
}

// Name implements Generator.
func (s *Stride) Name() string { return "stride" }

// Footprint implements Generator.
func (s *Stride) Footprint() int64 { return s.region.Size }

// Next implements Generator.
func (s *Stride) Next() (Ref, bool) {
	cpu := nextCPU(&s.cpu, s.cfg.NumCPUs)
	part := s.region.Size / int64(s.cfg.NumCPUs)
	off := int64(cpu)*part + s.pos[cpu]
	s.pos[cpu] = (s.pos[cpu] + s.cfg.Stride) % part
	return Ref{
		Addr:   s.region.At(off),
		Write:  s.r.Chance(s.cfg.WriteFraction),
		CPU:    cpu,
		Instrs: 2,
	}, true
}

// ZipfConfig parameterizes a skewed-popularity generator.
type ZipfConfig struct {
	NumCPUs       int
	FootprintByte int64
	SlotBytes     int64 // granularity of popularity (record size)
	Skew          float64
	WriteFraction float64
	Seed          uint64
}

// Zipfian emits references whose slot popularity follows a Zipf
// distribution — the canonical model for skewed record access and the
// backbone of the OLTP generator.
type Zipfian struct {
	cfg    ZipfConfig
	region Region
	slots  int64 // SlotBytes-sized slots in region
	r      *RNG
	z      *Zipf
	cpu    int
}

// NewZipfian builds a Zipf generator. SlotBytes defaults to 128, Skew to
// 1.2.
func NewZipfian(cfg ZipfConfig) *Zipfian {
	if cfg.NumCPUs <= 0 {
		panic("workload: NumCPUs must be positive")
	}
	if cfg.SlotBytes <= 0 {
		cfg.SlotBytes = 128
	}
	if cfg.Skew == 0 {
		cfg.Skew = 1.2
	}
	l := NewLayout()
	region := l.Region(cfg.FootprintByte)
	slots := region.Slots(cfg.SlotBytes)
	r := NewRNG(cfg.Seed)
	return &Zipfian{
		cfg:    cfg,
		region: region,
		slots:  slots,
		r:      r,
		z:      NewZipf(r, cfg.Skew, slots),
	}
}

// Name implements Generator.
func (z *Zipfian) Name() string { return "zipf" }

// Footprint implements Generator.
func (z *Zipfian) Footprint() int64 { return z.region.Size }

// Next implements Generator.
func (z *Zipfian) Next() (Ref, bool) {
	cpu := nextCPU(&z.cpu, z.cfg.NumCPUs)
	// Scatter ranks across the region so that popularity is not spatially
	// correlated (hot records are not adjacent on disk pages).
	scattered := wrap(z.z.Sample()*2654435761, z.slots)
	return Ref{
		Addr:   z.region.Base + uint64(scattered*z.cfg.SlotBytes),
		Write:  z.r.Chance(z.cfg.WriteFraction),
		CPU:    cpu,
		Instrs: 3,
	}, true
}
