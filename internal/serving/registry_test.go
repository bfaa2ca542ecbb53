package serving

import (
	"errors"
	"testing"

	"cardnet/internal/core"
)

func TestRegistrySwapValidatesShapes(t *testing.T) {
	base := testModel(1)
	reg := NewRegistry(base)

	if _, v := reg.Current(); v != 1 {
		t.Fatalf("initial version %d", v)
	}

	// Wrong input dimensionality.
	cfg := base.Cfg
	wrongDim := core.New(cfg, base.InDim+8)
	if _, err := reg.Swap(wrongDim); !errors.Is(err, ErrBadInput) {
		t.Fatalf("wrong InDim accepted: err=%v", err)
	}

	// Wrong τ range.
	cfg2 := core.DefaultConfig(base.Cfg.TauMax + 3)
	cfg2.VAEHidden = []int{16}
	cfg2.VAELatent = 4
	cfg2.PhiHidden = []int{16, 16}
	cfg2.ZDim = 8
	cfg2.Accel = true
	wrongTau := core.New(cfg2, base.InDim)
	if _, err := reg.Swap(wrongTau); !errors.Is(err, ErrBadInput) {
		t.Fatalf("wrong TauMax accepted: err=%v", err)
	}

	if _, err := reg.Swap(nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil model accepted: err=%v", err)
	}

	// Rejected swaps must not advance the version or change the model.
	if m, v := reg.Current(); v != 1 || m != base {
		t.Fatalf("registry changed by rejected swaps: v=%d", v)
	}

	// A compatible model (different weights, same shape) swaps fine.
	next := testModel(2)
	v, err := reg.Swap(next)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("swap version %d, want 2", v)
	}
	if m, _ := reg.Current(); m != next {
		t.Fatal("Current did not return the swapped model")
	}
}

func TestRegistryOnSwapFiresPerSuccessfulSwap(t *testing.T) {
	reg := NewRegistry(testModel(1))
	var fired int
	reg.OnSwap(func() { fired++ })

	if _, err := reg.Swap(nil); err == nil {
		t.Fatal("nil swap accepted")
	}
	if fired != 0 {
		t.Fatal("OnSwap fired for a rejected swap")
	}
	if _, err := reg.Swap(testModel(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Swap(testModel(3)); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("OnSwap fired %d times, want 2", fired)
	}
}

// TestRegistryPublishesPreparedArtifact checks the two halves of Swap: a
// prepared artifact is installed as the exact pointer the caller holds, and
// an artifact prepared against a version that is no longer live is refused.
func TestRegistryPublishesPreparedArtifact(t *testing.T) {
	reg := NewRegistry(testModel(1))
	a, err := reg.Prepare(testModel(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Prepare(testModel(3))
	if err != nil {
		t.Fatal(err)
	}
	if reg.Served().Version != 1 {
		t.Fatal("Prepare must not install anything")
	}
	if err := reg.Publish(a); err != nil {
		t.Fatal(err)
	}
	if reg.Served() != a || a.Version != 2 {
		t.Fatalf("live artifact %p (version %d), want the published %p", reg.Served(), reg.Served().Version, a)
	}
	if err := reg.Publish(b); err == nil {
		t.Fatal("artifact prepared against version 1 published over version 2")
	}
	if err := reg.Publish(a); err == nil {
		t.Fatal("artifact published twice")
	}
	if reg.Served() != a {
		t.Fatal("refused publish changed the live artifact")
	}
}
