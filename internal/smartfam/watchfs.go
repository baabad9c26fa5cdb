package smartfam

import (
	"errors"
	"time"
)

// The push-mode invocation front door ("fam v2") and log compaction rest
// on three optional FS capabilities, implemented by the internal/nfs
// client; DirFS has the last two:
//
//   - WatchFS streams server-push change notifications: the daemon's serve
//     loop and the host's response routers drain the log a notify names,
//     and fall back to their ticks when no stream is live.
//   - GenStat reports a file's identity with its size, so a reader finds a
//     rewrite from the one Stat it makes anyway.
//   - ReplaceFS swaps a log for its compacted image in one conditional,
//     atomic step.
//
// Consumers must treat push as a best-effort accelerator: a stream can be
// lost (its channel closes) and events can be dropped. A notify may carry
// the bytes an append wrote at their offset; offsets, identities and
// record CRCs remain the source of truth, the readers' sweeps the fallback.

// ErrWatchUnsupported marks a transport that can never push notifications
// (a pre-watch server). It is PERMANENT for the
// connection: consumers stop retrying Watch and run on their tick alone.
// Transient Watch failures are reported as other errors and may be
// retried. Transport implementations wrap this sentinel.
var ErrWatchUnsupported = errors.New("push watch unsupported on this transport")

// WatchEvent reports that a watched file changed: Name is the
// share-relative file, Gen its identity after the mutation (see GenStat;
// 0 when the source does not track one). When the mutation was an append
// the source chose to ship, Data holds the appended bytes and Off the
// file offset they landed at; Data is empty for every other event (a
// "bare" notify). Data is shared between subscribers and must not be
// modified.
type WatchEvent struct {
	Name string
	Gen  uint64
	Off  int64
	Data []byte
}

// WatchStream is one live change-notification subscription. Events are
// delivered best-effort (dropped, never blocked on, when the consumer
// lags) and the channel CLOSES when the stream is lost — connection drop,
// server shutdown, or Close — which is the consumer's signal to fall back
// to its tick and optionally re-subscribe.
type WatchStream interface {
	// Events returns the notification channel. It is closed exactly once,
	// when the stream dies.
	Events() <-chan WatchEvent
	// Close unsubscribes. Safe to call multiple times and after loss.
	Close() error
}

// WatchFS is an FS that can push change notifications for files whose
// share-relative name starts with prefix ("" watches everything).
type WatchFS interface {
	FS
	Watch(prefix string) (WatchStream, error)
}

// GenStat is an FS that reports a file's identity with its size and
// mtime: a replace, a truncating rewrite, a rename onto or away from the
// name and a remove change it, an append leaves it alone, so two looks
// that report one identity see one file, grown at most by appends. 0
// means the share does not track identities.
type GenStat interface {
	StatGen(name string) (size int64, mtime time.Time, gen uint64, err error)
}

// ReplaceFS is a share that can replace a file atomically on a condition:
// ReplaceIf swaps name's contents for data, giving it a new identity, only
// while name is still size bytes long (else ErrLogChanged), and no append
// lands between the check and the swap. Registry.CompactLog needs it.
type ReplaceFS interface {
	GenStat
	ReplaceIf(name string, data []byte, size int64) error
}

// ErrLogChanged reports a conditional replace whose file no longer had the
// size the replacer read.
var ErrLogChanged = errors.New("smartfam: log changed since it was read")
