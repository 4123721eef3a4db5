package core

import (
	"errors"
	"fmt"

	"siesta/internal/merge"
)

// Streaming synthesis entry (DESIGN.md §15). The batch pipeline's front
// half — run the app, record, decode a whole trace — is replaced by a
// merge.Ingest session whose rank streams arrived over the wire; the back
// half is the pipeline Synthesize runs, so for any trace the streamed and
// batch paths synthesize byte-identical programs, C sources, and proxies.
// core/streaming_diff_test.go holds that contract.

// errIngestScale rejects comm scaling on a stream: it calibrates against
// decoded trace timings, which a streamed session deliberately never holds.
var errIngestScale = errors.New("core: ingest does not support Scale > 1 (comm scaling needs trace timings)")

// NewIngest opens a streaming merge session sized and configured for one
// synthesis: the session inherits opts.Merge exactly as Synthesize would
// apply it (defaults included), which is what makes a later
// SynthesizeIngest equivalent to Synthesize over the equivalent trace.
// Scale > 1 is rejected up front.
func NewIngest(numRanks int, opts Options) (*merge.Ingest, error) {
	opts.Ranks = numRanks
	opts = opts.withDefaults()
	if numRanks <= 0 {
		return nil, fmt.Errorf("core: ingest needs a positive rank count, got %d", numRanks)
	}
	if opts.Scale > 1 {
		return nil, errIngestScale
	}
	return merge.NewIngest(numRanks, opts.Platform.Name, opts.Impl.Name, opts.Merge)
}

// SynthesizeIngest commits a streaming ingest session: the pipeline runs
// with the session's Build as its merge phase, and with Synthesize's
// option handling, checkpoints and resume. The session is consumed (its
// spill files are released) even on error; calling it again after a
// failed attempt reuses the program the first Build produced. The
// returned Result carries no Trace and no simulated runs: those belong to
// whoever recorded the streams.
func SynthesizeIngest(in *merge.Ingest, opts Options) (*Result, error) {
	defer in.Close()
	if opts.Scale > 1 {
		return nil, errIngestScale
	}
	opts.Ranks = in.NumRanks()
	return synthesize(input{ingest: in}, opts)
}
