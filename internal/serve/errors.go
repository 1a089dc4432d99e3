package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
)

// The v1 error contract: every error response, on every endpoint, is one
// JSON envelope
//
//	{"error": {"code": "...", "message": "...", "retry_after_ms": 1000}}
//
// with Content-Type application/json. Method and media-type mismatches
// are enforced uniformly by the endpoint wrapper below, so a client can
// always json-decode an error body no matter which handler or layer
// produced it.

// Error codes of the v1 error envelope.
const (
	codeBadRequest          = "bad_request"
	codeNotFound            = "not_found"
	codeMethodNotAllowed    = "method_not_allowed"
	codeUnsupportedMedia    = "unsupported_media_type"
	codeTooManyRequests     = "too_many_requests"
	codeClientClosedRequest = "client_closed_request"
	codeTimeout             = "timeout"
	codeDraining            = "draining"
	codeUnavailable         = "unavailable"
	codeInternal            = "internal"
	codePayloadTooLarge     = "payload_too_large"
)

// apiError is the envelope's inner document. status is the HTTP status it
// travels with (not part of the JSON document). RetryAfterMs is set on
// load-shed responses and mirrors the Retry-After header.
type apiError struct {
	status       int
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// errorf builds an apiError.
func errorf(status int, code, format string, args ...any) *apiError {
	return &apiError{status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// writeAPIError emits e as the v1 error envelope, setting the Retry-After
// header when the error carries a backoff hint.
func writeAPIError(w http.ResponseWriter, e *apiError) {
	w.Header().Set("Content-Type", "application/json")
	if e.RetryAfterMs > 0 {
		secs := (e.RetryAfterMs + 999) / 1000
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	w.WriteHeader(e.status)
	doc, _ := json.Marshal(struct {
		Error *apiError `json:"error"`
	}{e})
	w.Write(append(doc, '\n'))
}

// codeForStatus maps an HTTP status to the envelope code serve uses for
// it.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return codeBadRequest
	case http.StatusNotFound:
		return codeNotFound
	case http.StatusMethodNotAllowed:
		return codeMethodNotAllowed
	case http.StatusUnsupportedMediaType:
		return codeUnsupportedMedia
	case http.StatusTooManyRequests:
		return codeTooManyRequests
	case http.StatusGatewayTimeout:
		return codeTimeout
	case http.StatusServiceUnavailable:
		return codeUnavailable
	case http.StatusRequestEntityTooLarge:
		return codePayloadTooLarge
	}
	return codeInternal
}

// writeError emits a uniform error document whose code derives from the
// status.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeAPIError(w, errorf(status, codeForStatus(status), format, args...))
}

// errStatus maps a job error to an HTTP status.
func errStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// errCode maps a job error to its envelope code.
func errCode(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return codeTimeout
	case errors.Is(err, context.Canceled):
		return codeClientClosedRequest
	default:
		return codeInternal
	}
}

// endpoint wraps a handler with the uniform v1 routing contract: exactly
// one allowed method (405 + Allow otherwise) and, for JSON endpoints, an
// application/json request body (415 otherwise; a missing Content-Type is
// tolerated for curl-friendliness).
func (s *Server) endpoint(method string, jsonBody bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			s.bump(func(c *counters) { c.BadRequests++ })
			w.Header().Set("Allow", method)
			writeAPIError(w, errorf(http.StatusMethodNotAllowed, codeMethodNotAllowed,
				"%s does not allow %s (allow: %s)", r.URL.Path, r.Method, method))
			return
		}
		if jsonBody {
			if ct := r.Header.Get("Content-Type"); ct != "" {
				mt, _, err := mime.ParseMediaType(ct)
				if err != nil || mt != "application/json" {
					s.bump(func(c *counters) { c.BadRequests++ })
					writeAPIError(w, errorf(http.StatusUnsupportedMediaType, codeUnsupportedMedia,
						"%s wants Content-Type application/json, got %q", r.URL.Path, ct))
					return
				}
			}
		}
		h(w, r)
	}
}

// handleNotFound answers unrouted paths with the envelope instead of the
// ServeMux plain-text default.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeAPIError(w, errorf(http.StatusNotFound, codeNotFound, "no such endpoint: %s", r.URL.Path))
}
