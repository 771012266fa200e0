// Package replica scales the live index out by segment shipping:
// followers poll a leader's manifest ordinal over HTTP, pull the
// immutable segment files they do not yet have (resumable, whole-file
// CRC-verified, committed with the same temp+rename+fsync protocol the
// live layer uses for its own commits), and install them through
// live.ApplyManifest — the follower-side half of the generation/
// refcount snapshot contract. A coordinator scatters queries to K
// replicas and gathers through topk.MergeReplicas, so a merged answer
// carries the same exactness/degraded certificate a single node
// produces: a lagging or unreachable replica degrades the certificate
// explicitly, it never silently ages the answer.
//
// The wire protocol is two GET endpoints a leader mounts under /repl/:
//
//	/repl/manifest            → WireManifest: the committed manifest
//	                            plus per-segment file lists with sizes
//	                            and CRC-32 (IEEE) checksums.
//	/repl/segment/{seq}/{file} → one immutable segment file, with Range
//	                            support so an interrupted pull resumes.
//
// Everything a follower pulls is immutable under its name: segment
// directories are named by a forever-unique sequence number and
// alive-bitmap sidecars by version, so there is no cache invalidation
// anywhere — only "have it or not". The manifest ordinal (Generation)
// is the replication clock: a follower is caught up exactly when its
// ordinal equals the leader's.
package replica

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"

	"repro/internal/index"
	"repro/internal/live"
)

// decodeJSON decodes one JSON value from r.
func decodeJSON(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}

// The files a segment directory ships.
const (
	segmentDataFile = index.SegmentFile // paged, page-checksummed postings + metadata
	docTermsFile    = live.DocTermsFile // forward sidecar (trailing CRC-32)
)

// Wire paths.
const (
	// Prefix is the URL subtree a leader serves under (mount with
	// server.Mount(Prefix+"/", leader)).
	Prefix = "/repl"
	// ManifestPath serves the WireManifest.
	ManifestPath = Prefix + "/manifest"
	// SegmentPathPrefix precedes "{seq}/{file}" in file requests.
	SegmentPathPrefix = Prefix + "/segment/"
)

// WireFile is one file of a replicated segment: its name inside the
// segment directory, byte size, and whole-file CRC-32 (IEEE — the same
// polynomial the storage layer's section and page checksums use). The
// follower verifies the CRC while streaming and never commits a file
// that does not match.
type WireFile struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc32"`
}

// WireSegment is one active segment in the wire manifest: the live
// manifest entry plus the files a follower must hold to serve it.
type WireSegment struct {
	live.SegmentInfo
	Files []WireFile `json:"files"`
}

// WireManifest is the GET /repl/manifest payload: the leader's
// committed manifest with per-segment file inventories, all captured in
// one consistent snapshot.
type WireManifest struct {
	Generation uint64        `json:"generation"`
	NextSeq    uint64        `json:"next_seq"`
	Segments   []WireSegment `json:"segments"`
}

// Manifest strips the file inventories back to the live manifest form
// ApplyManifest installs.
func (wm *WireManifest) Manifest() live.Manifest {
	m := live.Manifest{Version: 1, Generation: wm.Generation, NextSeq: wm.NextSeq}
	for _, s := range wm.Segments {
		m.Segments = append(m.Segments, s.SegmentInfo)
	}
	return m
}

// aliveFileRe matches alive-bitmap sidecar file names (live.AliveFileName).
var aliveFileRe = regexp.MustCompile(`^alive-[0-9]{6}\.bm$`)

// validFileName whitelists the files the protocol ships: the paged
// postings file, the forward sidecar, and alive-bitmap versions.
// Anything else — and any path shape that could escape the segment
// directory — is rejected.
func validFileName(name string) bool {
	return name == segmentDataFile || name == docTermsFile || aliveFileRe.MatchString(name)
}

// segmentFiles lists the files a follower must pull to serve the
// segment described by info.
func segmentFiles(info live.SegmentInfo) []string {
	files := []string{segmentDataFile, docTermsFile}
	if info.Tomb > 0 {
		files = append(files, live.AliveFileName(info.Tomb))
	}
	return files
}

func checkSeqName(info live.SegmentInfo) error {
	if live.SegmentDirName(info.Seq) != info.Name {
		return fmt.Errorf("replica: segment %q does not match its sequence number %d", info.Name, info.Seq)
	}
	return nil
}
