// Package ge implements the paper's test application: the blocked
// parallel Gaussian elimination algorithm without pivoting (its
// Sections 5 and 6).
//
// The algorithm views each sequential elimination iteration as a
// diagonal wave traversing the matrix from the upper-left to the
// lower-right corner; several waves are active simultaneously. In the
// blocked version, block (i,j) performs its update for pivot k at wave
// step t = i+j+k, consuming pivot-column data arriving from its left
// neighbour and pivot-row data from its upper neighbour, and forwarding
// both to its right and lower neighbours. Each active block applies one
// of the four basic operations of package blockops.
//
// The package provides three coordinated artifacts:
//
//   - SequentialBlocked: the blocked factorization run in place, the
//     numeric reference;
//   - BuildProgram: the oblivious program (alternating computation and
//     communication steps) replayed by the predictor and the machine
//     emulator;
//   - ParallelFactor: an actual concurrent executor (one goroutine per
//     processor, channel messages for every network transfer) whose
//     result is validated against the reference — evidence that the
//     program BuildProgram hands to the simulators describes a real,
//     correct parallel execution.
package ge

import (
	"fmt"

	"loggpsim/internal/blockops"
	"loggpsim/internal/layout"
	"loggpsim/internal/matrix"
	"loggpsim/internal/program"
	"loggpsim/internal/trace"
)

// Grid describes a blocked square matrix: NB×NB blocks of size B.
type Grid struct {
	// NB is the number of blocks per dimension.
	NB int
	// B is the block side length.
	B int
}

// NewGrid validates that an n×n matrix divides into b×b blocks.
func NewGrid(n, b int) (Grid, error) {
	if n <= 0 || b <= 0 {
		return Grid{}, fmt.Errorf("ge: invalid matrix size %d or block size %d", n, b)
	}
	if n%b != 0 {
		return Grid{}, fmt.Errorf("ge: block size %d does not divide matrix size %d", b, n)
	}
	return Grid{NB: n / b, B: b}, nil
}

// N returns the matrix side length.
func (g Grid) N() int { return g.NB * g.B }

// Waves returns the number of wave steps of the blocked algorithm:
// block (nb-1, nb-1) performs its last update (pivot nb-1) at wave
// 3(nb-1), so there are 3(nb-1)+1 steps.
func (g Grid) Waves() int { return 3*(g.NB-1) + 1 }

// OpFor classifies the basic operation block (i,j) performs for pivot k.
func OpFor(i, j, k int) blockops.Op {
	switch {
	case i == k && j == k:
		return blockops.Op1
	case i == k:
		return blockops.Op2
	case j == k:
		return blockops.Op3
	default:
		return blockops.Op4
	}
}

// pivots returns the pivots whose waves are active at wave step t:
// k in [kLo, kHi], where wave k occupies anti-diagonal t-k and
// 0 <= k <= min(i,j) <= nb-1 bounds its blocks. Together with rows it
// is the one definition of a wave's blocks.
func (g Grid) pivots(t int) (kLo, kHi int) {
	nb := g.NB
	return max(t-2*(nb-1), 0), min(t/3, nb-1)
}

// rows returns the rows of pivot k's active blocks at wave t: block
// (i, t-k-i) for i in [iLo, iHi], so that k <= j = t-k-i and i <= nb-1.
func (g Grid) rows(t, k int) (iLo, iHi int) {
	nb := g.NB
	d := t - k // the anti-diagonal the pivot-k wave occupies
	return max(k, d-(nb-1)), min(d-k, nb-1)
}

// active calls fn for every block active at wave t, in deterministic
// (k, i) order: block (i,j) with pivot k = t-i-j, subject to
// 0 <= k <= min(i,j) <= nb-1.
func (g Grid) active(t int, fn func(i, j, k int)) {
	kLo, kHi := g.pivots(t)
	for k := kLo; k <= kHi; k++ {
		iLo, iHi := g.rows(t, k)
		for i := iLo; i <= iHi; i++ {
			fn(i, t-k-i, k)
		}
	}
}

// BuildProgram generates the oblivious program of the blocked wavefront
// elimination on the given layout: one step per wave, whose computation
// phase holds every active block's basic operation on its owner and
// whose communication phase carries one b×b block to the right and one
// downward from every active block (messages between co-located blocks
// become self messages — local transfers that the LogGP simulation
// skips and the machine emulator charges as memory copies).
func BuildProgram(g Grid, lay layout.Layout) (*program.Program, error) {
	if err := layout.Validate(lay, g.NB); err != nil {
		return nil, err
	}
	nb, p := g.NB, lay.P()
	// Every block's owner, looked up once: the waves visit a block once
	// per pivot, and Owner is an interface call.
	own := make([]int32, nb*nb)
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			own[i*nb+j] = int32(lay.Owner(i, j))
		}
	}
	pr := program.New(p)
	pr.Steps = make([]*program.Step, 0, g.Waves())
	bytes := blockops.BlockBytes(g.B)
	ops := make([]int, p) // the wave's operation count per owner
	for t := 0; t < g.Waves(); t++ {
		kLo, kHi := g.pivots(t)
		// Count the wave's operations per owner and its messages first,
		// so that every list is allocated once, at its final length.
		clear(ops)
		msgs := 0
		for k := kLo; k <= kHi; k++ {
			iLo, iHi := g.rows(t, k)
			for i := iLo; i <= iHi; i++ {
				j := t - k - i
				ops[own[i*nb+j]]++
				if j+1 < nb {
					msgs++
				}
				if i+1 < nb {
					msgs++
				}
			}
		}
		s := pr.AddStep()
		for q, n := range ops {
			if n > 0 {
				s.Comp[q] = make([]program.OpCall, 0, n)
			}
		}
		if msgs > 0 {
			s.Comm.Msgs = make([]trace.Msg, 0, msgs)
		}
		// Edges between co-located blocks are intentional local
		// transfers, not accidental self-sends.
		s.Comm.WithLocalTransfers()
		for k := kLo; k <= kHi; k++ {
			iLo, iHi := g.rows(t, k)
			for i := iLo; i <= iHi; i++ {
				j := t - k - i
				owner := int(own[i*nb+j])
				s.AddOpOn(owner, OpFor(i, j, k), g.B, uint64(i*nb+j))
				if j+1 < nb {
					s.Comm.Add(owner, int(own[i*nb+j+1]), bytes)
				}
				if i+1 < nb {
					s.Comm.Add(owner, int(own[(i+1)*nb+j]), bytes)
				}
			}
		}
	}
	return pr, nil
}

// SequentialBlocked factors a in place with the right-looking blocked
// algorithm built from the four basic operations, leaving the combined
// LU factors (compare matrix.LUInPlace). It is the numeric reference for
// the parallel executor.
func SequentialBlocked(a *matrix.Dense, b int) error {
	g, err := NewGrid(a.Rows, b)
	if err != nil {
		return err
	}
	if a.Rows != a.Cols {
		return fmt.Errorf("ge: matrix must be square, got %d×%d", a.Rows, a.Cols)
	}
	nb := g.NB
	// Work on block copies for locality, write back at the end.
	blk := make([][]*matrix.Dense, nb)
	for i := range blk {
		blk[i] = make([]*matrix.Dense, nb)
		for j := range blk[i] {
			blk[i][j] = matrix.New(b, b)
			matrix.CopyBlock(blk[i][j], a, i, j, b)
		}
	}
	for k := 0; k < nb; k++ {
		d, err := blockops.ApplyOp1(blk[k][k])
		if err != nil {
			return fmt.Errorf("ge: pivot block %d: %w", k, err)
		}
		for j := k + 1; j < nb; j++ {
			blockops.ApplyOp2(d.Linv, blk[k][j])
		}
		for i := k + 1; i < nb; i++ {
			blockops.ApplyOp3(blk[i][k], d.Uinv)
		}
		for i := k + 1; i < nb; i++ {
			for j := k + 1; j < nb; j++ {
				blockops.ApplyOp4(blk[i][j], blk[i][k], blk[k][j])
			}
		}
	}
	for i := range blk {
		for j := range blk[i] {
			matrix.SetBlock(a, blk[i][j], i, j, b)
		}
	}
	return nil
}
