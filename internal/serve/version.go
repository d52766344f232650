package serve

import (
	"encoding/json"
	"net/http"
	"runtime"
	"runtime/debug"
)

// BuildInfo is the daemon's build identity as the Go runtime reports
// it: module version, VCS commit (shortened), and toolchain. It backs
// GET /v1/version and the spind_build_info metric — two views of one
// answer to "what exactly is running on that daemon?".
type BuildInfo struct {
	Version string `json:"version"`
	Commit  string `json:"commit,omitempty"`
	Go      string `json:"go"`
}

// readBuild resolves the build identity via runtime/debug.ReadBuildInfo.
// Binaries built without module or VCS stamping (go test, plain go
// build in a work tree) degrade to "devel" with no commit.
func readBuild() BuildInfo {
	b := BuildInfo{Version: "devel", Go: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		b.Version = v
	}
	for _, st := range bi.Settings {
		if st.Key == "vcs.revision" && st.Value != "" {
			rev := st.Value
			if len(rev) > 12 {
				rev = rev[:12]
			}
			b.Commit = rev
		}
	}
	return b
}

// handleVersion is GET /v1/version.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, "GET", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.build)
}
