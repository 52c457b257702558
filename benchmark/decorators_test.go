package main

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"accdb/internal/core"
	"accdb/internal/server"
	"accdb/internal/spi"
	"accdb/internal/spi/spitest"
	"accdb/internal/storage"
	"accdb/internal/trace"
)

// The decorated btree store must pass the SPI conformance suite verbatim,
// with counting switched on, so the traced run measures the same program.
func TestTimedStoreConformance(t *testing.T) {
	var on atomic.Bool
	on.Store(true)
	stats := &storeStats{on: &on}
	spitest.Run(t, func() spi.Store { return newTimedStore(storage.NewStore(), stats) })
	if stats.calls[opGet].Load() == 0 || stats.calls[opPublishVersion].Load() == 0 || stats.scans.Load() == 0 {
		t.Fatalf("decorator counted nothing: get=%d publish=%d scans=%d",
			stats.calls[opGet].Load(), stats.calls[opPublishVersion].Load(), stats.scans.Load())
	}
}

func TestTimedStoreForwardsCapabilities(t *testing.T) {
	var on atomic.Bool
	s := newTimedStore(storage.NewStore(), &storeStats{on: &on})
	if got, want := spi.StoreCapabilities(s), spi.StoreCapabilities(storage.NewStore()); got != want {
		t.Fatalf("capabilities %+v, want %+v", got, want)
	}
	if s.Table("absent") != nil {
		t.Fatal("absent table is not an untyped nil")
	}
}

// fakeRunner records what reaches it through the decorator.
type fakeRunner struct {
	tt     *core.TxnType
	closed bool
	args   any
	err    error
}

func (f *fakeRunner) TypeBytes(name []byte) *core.TxnType {
	if string(name) == f.tt.Name {
		return f.tt
	}
	return nil
}

func (f *fakeRunner) RunReadTypeContextSpan(_ context.Context, _ *core.TxnType, args any, _ core.ReadTier, _ *trace.Span) error {
	f.args = args
	return f.err
}

func (f *fakeRunner) Close() error { f.closed = true; return nil }
func (f *fakeRunner) Closed() bool { return f.closed }

func TestTimedRunnerPassesThrough(t *testing.T) {
	inner := &fakeRunner{tt: &core.TxnType{Name: "payment"}, err: errors.New("boom")}
	var on atomic.Bool
	on.Store(true)
	var r server.Runner = &timedRunner{Runner: inner, partitions: 1, on: &on}

	if r.TypeBytes([]byte("payment")) != inner.tt || r.TypeBytes([]byte("nope")) != nil {
		t.Fatal("TypeBytes not forwarded")
	}
	args := &struct{}{}
	if err := r.RunReadTypeContextSpan(context.Background(), inner.tt, args, core.TierLocked, nil); err != inner.err {
		t.Fatalf("error %v, want %v", err, inner.err)
	}
	if inner.args != args {
		t.Fatal("args not forwarded")
	}
	if got := r.(*timedRunner).calls[txnIndex("payment")].Load(); got != 1 {
		t.Fatalf("payment calls %d, want 1", got)
	}
	if r.Closed() {
		t.Fatal("closed before Close")
	}
	if err := r.Close(); err != nil || !inner.closed || !r.Closed() {
		t.Fatal("Close/Closed not forwarded")
	}
}
