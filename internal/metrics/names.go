package metrics

// The metric name registry. Every counter, gauge and timer key used
// anywhere in the tree is declared here; the metrickey analyzer
// (internal/lint) rejects any Registry.Counter/Gauge/Timer call whose
// name is not one of these constants, so a typo'd key can never create a
// silently-empty metric. Dynamic families (one counter per NFS op, one
// timer per module) concatenate a *Prefix constant with a runtime suffix;
// metrickey requires the prefix constant and leaves the suffix free.
//
// Naming scheme: <layer>.<subsystem?>.<what>, snake_case leaves, "." as
// the hierarchy separator.
const (
	// smartFAM — wire format and client side.
	SmartfamCorruptRecords      = "smartfam.corrupt_records"       // CRC/parse failures skipped while scanning a log
	SmartfamRespondErrors       = "smartfam.respond_errors"        // response appends that exhausted their retries
	SmartfamClientAppendRetries = "smartfam.client.append_retries" // host-side request-append retries

	// smartFAM — push-mode invocation front door ("fam v2"): server-push
	// change notification plus group-commit batching on both log directions.
	FamPushActive   = "smartfam.fam.push_active"        // gauge: 1 while a live notify stream feeds dispatch, 0 in degraded polling
	FamPushEvents   = "smartfam.fam.push_events"        // notify-stream events that triggered a dispatch/scan
	FamDegraded     = "smartfam.fam.degraded"           // notify-stream losses that dropped a consumer back to polling
	FamBatchFlushes = "smartfam.fam.batch_flushes"      // host-side request batches flushed (one share append each)
	FamBatchRecords = "smartfam.fam.batch_records"      // request records carried inside those batches
	FamBatchBytes   = "smartfam.fam.batch_bytes"        // request bytes carried inside those batches
	FamRespFlushes  = "smartfam.fam.resp_batch_flushes" // daemon-side response batches flushed
	FamRespRecords  = "smartfam.fam.resp_batch_records" // response records carried inside those batches

	// smartFAM — daemon (SD node) side.
	DaemonRequests      = "smartfam.daemon.requests"       // request records accepted
	DaemonErrors        = "smartfam.daemon.errors"         // module executions that returned an error
	DaemonAborted       = "smartfam.daemon.aborted"        // executions aborted by daemon shutdown
	DaemonDeduped       = "smartfam.daemon.deduped"        // host retries answered from the response cache
	DaemonRecovered     = "smartfam.daemon.recovered"      // journal replays (cached response or re-run) after restart
	DaemonIntentsLost   = "smartfam.daemon.intents_lost"   // journaled intents whose request record vanished
	DaemonJournalErrors = "smartfam.daemon.journal_errors" // journal appends that failed
	DaemonMarshalErrors = "smartfam.daemon.marshal_errors" // response records that failed to encode
	DaemonAppendErrors  = "smartfam.daemon.append_errors"  // response appends that failed (per attempt)
	DaemonQueueFull     = "smartfam.daemon.queue_full"     // requests shed by the scheduler's bounded queue

	// Job scheduler (internal/sched).
	SchedSubmitted          = "sched.submitted"
	SchedCompleted          = "sched.completed"
	SchedFailed             = "sched.failed"
	SchedCancelled          = "sched.cancelled"
	SchedRetries            = "sched.retries" // never incremented (the scheduler does not retry); kept because perfbench reports it
	SchedQueueFullRejects   = "sched.queue_full_rejects"
	SchedAdmissionDeferrals = "sched.admission_deferrals"
	SchedQueueDepth         = "sched.queue_depth"
	SchedRunning            = "sched.running"
	SchedReservedBytes      = "sched.reserved_bytes"
	SchedWait               = "sched.wait" // queue-entry -> dispatch timer
	SchedRun                = "sched.run"  // dispatch -> completion timer

	// Host-side programming framework (internal/core).
	CoreOffloads         = "core.offloads"
	CoreFailovers        = "core.failovers"       // nodes a job's coordinator marked down
	CoreLocalFallbacks   = "core.local_fallbacks" // never incremented; kept because perfbench reports it
	CoreQueueFullRejects = "core.queue_full_rejects"
	CoreHeartbeatSkips   = "core.heartbeat_skips" // attached nodes left out of a job by a failed Probe
	CoreInvokePrefix     = "core.invoke."         // + module name: per-module invoke timer

	// Multi-SD scatter/gather coordinator (internal/fleet).
	FleetDispatches        = "fleet.dispatches"          // fragment attempts handed to node sessions
	FleetSpeculations      = "fleet.speculations"        // straggler re-executions launched
	FleetDupResults        = "fleet.dup_results"         // late duplicate results dropped by first-wins dedup
	FleetQueueSteals       = "fleet.queue_steals"        // fragments an idle node stole from a busy node's queue
	FleetQueueFullRequeues = "fleet.queue_full_requeues" // fragments shed by a node scheduler and requeued
	FleetNodeFailures      = "fleet.node_failures"       // nodes marked down during a job
	FleetMoves             = "fleet.moved_fragments"     // fragments re-placed off a failed node
	FleetExecute           = "fleet.execute"             // whole scatter/gather wall-time timer
	FleetMerge             = "fleet.merge"               // cross-node merge timer

	// Replicated storage tier + self-healing (internal/fleet Store/Scrubber).
	FleetReplicaWrites      = "fleet.replica_writes"        // replica copies written by Put/PutFile
	FleetReadRepairs        = "fleet.read_repairs"          // bad/missing copies rewritten from a surviving replica
	FleetReReplications     = "fleet.re_replications"       // missing copies recreated on a preferred node
	FleetCorruptReplicas    = "fleet.corrupt_replicas"      // replica reads that failed CRC32 trailer verification
	FleetReplicaFallbacks   = "fleet.replica_fallbacks"     // fragment attempts re-dispatched to the next-ranked replica
	FleetProbes             = "fleet.probes"                // liveness probes launched at marked-down nodes
	FleetNodeRecoveries     = "fleet.node_recoveries"       // marked-down nodes probed back to healthy
	FleetScrubFiles         = "fleet.scrub.files"           // share files the scrubber verified
	FleetScrubBytes         = "fleet.scrub.bytes"           // bytes the scrubber read (rate-paced)
	FleetScrubRepairs       = "fleet.scrub.repairs"         // repairs (rewrites + re-replications) a scrub pass made
	FleetScrubCorruptRecord = "fleet.scrub.corrupt_records" // corrupt smartFAM log records a scrub pass counted

	// NFS transport — server side.
	NFSBytesRead    = "nfs.bytes.read"
	NFSBytesWritten = "nfs.bytes.written"
	NFSOpPrefix     = "nfs.ops." // + op name: per-op request counter

	// NFS transport — client side (pipelining + wire accounting).
	NFSClientInflight       = "nfs.client.inflight"        // gauge: requests currently in the pipeline window
	NFSClientPipelineStalls = "nfs.client.pipeline_stalls" // sends that blocked on a full window
	NFSClientBytesSent      = "nfs.client.bytes_sent"      // raw bytes written to the wire (frames + payload)
	NFSClientBytesRecv      = "nfs.client.bytes_recv"      // raw bytes read off the wire
	NFSClientReplays        = "nfs.client.replays"         // idempotent requests replayed after a reconnect

	// NFS change-notification lane (OpWatch + unsolicited notify frames).
	NFSWatchStreams  = "nfs.watch.streams"  // gauge: live server-side watch registrations
	NFSWatchNotifies = "nfs.watch.notifies" // notify frames written to watching connections
	NFSWatchDropped  = "nfs.watch.dropped"  // notifies evicted, oldest first, from a full server queue or client stream (the consumer reads the change itself)
	NFSWatchEvents   = "nfs.watch.events"   // notify frames the client demux has delivered to its local streams, counted after delivery
)
