package smartfam

import (
	"errors"
	"time"
)

// The push-mode invocation front door ("fam v2") rests on two optional FS
// capabilities, both implemented by the internal/nfs client and not by
// DirFS:
//
//   - WatchFS streams server-push change notifications: the daemon's serve
//     loop and the host's response routers drain the log a notify names,
//     and fall back to their ticks when no stream is live.
//   - GenStat exposes the server's per-file change generation, so a size
//     probe can tell a rewrite that restored size and mtime from no change
//     at all.
//
// Consumers must treat both as best-effort accelerators: a stream can be
// lost (its channel closes), events can be dropped, and generations only
// advance for mutations the server observed. A notify may carry the bytes
// an append wrote at their offset; offsets and record CRCs remain the
// source of truth, and the readers' sweeps the fallback.

// ErrWatchUnsupported marks a transport that can never push notifications
// (a pre-watch server). It is PERMANENT for the
// connection: consumers stop retrying Watch and run on their tick alone.
// Transient Watch failures are reported as other errors and may be
// retried. Transport implementations wrap this sentinel.
var ErrWatchUnsupported = errors.New("push watch unsupported on this transport")

// WatchEvent reports that a watched file changed: Name is the
// share-relative file, Gen the server's change generation after the
// mutation (0 when the source does not track generations). When the
// mutation was an append the source chose to ship, Data holds the appended
// bytes and Off the file offset they landed at; Data is empty for every
// other event (a "bare" notify). Data is shared between subscribers and
// must not be modified.
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

// GenStat is an FS that reports a per-file change generation alongside
// size and mtime. The generation is monotonic per file and advances on
// every mutation the backing server performs, even one that leaves size
// and mtime bit-identical.
type GenStat interface {
	StatGen(name string) (size int64, mtime time.Time, gen uint64, err error)
}
