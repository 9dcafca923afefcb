package retry

import (
	"testing"
	"time"
)

func TestBackoffSchedule(t *testing.T) {
	p := Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond}
	want := []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 8 * time.Millisecond, // capped
	}
	for i, w := range want {
		if got := p.Backoff(i+1, nil); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := p.Backoff(0, nil); got != 0 {
		t.Errorf("Backoff(0) = %v, want 0", got)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, Jitter: 0.3, Seed: 11}
	rnd := p.Rand()
	for retry := 1; retry <= 20; retry++ {
		raw := p.Backoff(retry, nil)
		got := p.Backoff(retry, rnd)
		lo := time.Duration(float64(raw) * 0.7)
		hi := time.Duration(float64(raw) * 1.3)
		if got < lo || got > hi {
			t.Errorf("retry %d: jittered %v outside [%v, %v]", retry, got, lo, hi)
		}
	}
	// Same seed → same jitter sequence.
	a, b := p.Rand(), p.Rand()
	for i := 0; i < 100; i++ {
		if p.Backoff(3, a) != p.Backoff(3, b) {
			t.Fatal("jitter is not deterministic for a fixed seed")
		}
	}
}

func TestPolicyDefaults(t *testing.T) {
	p := Defaults()
	if p.Attempts() != 6 || p.BaseDelay <= 0 || p.MaxDelay <= p.BaseDelay {
		t.Errorf("Defaults() = %+v", p)
	}
	if (Policy{}).Attempts() != 1 {
		t.Error("zero policy should allow exactly one attempt")
	}
}
