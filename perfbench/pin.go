package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"ivory/internal/server"
)

// writePins regenerates pins.json: the digest of every hybrid and
// transient menu body as a fresh ivoryd serves it, and of every CSV one
// `ivory-exp all` run writes. Run it only on a commit whose outputs are
// meant to become the reference.
func writePins() error {
	srv := server.New(server.Config{})
	rep, err := boot(func(*replica) http.Handler { return srv.Handler() }, srv.Shutdown)
	if err != nil {
		return err
	}
	defer rep.close()
	c := newClient(1)
	digestOf := func(endpoint string, body []byte) (string, error) {
		status, out, err := post(c, rep.URL+"/v1/"+endpoint, body, -1)
		if err != nil || status != http.StatusOK {
			return "", fmt.Errorf("%s: status %d err %v: %.200s", endpoint, status, err, out)
		}
		return bodyDigest(endpoint, out)
	}
	var p pins
	for _, h := range hybridMenu() {
		d, err := digestOf("hybrid", mustJSON(h))
		if err != nil {
			return err
		}
		p.Hybrid = append(p.Hybrid, d)
	}
	for _, t := range transientMenu() {
		d, err := digestOf("transient", mustJSON(t))
		if err != nil {
			return err
		}
		p.Transient = append(p.Transient, d)
	}
	dir := filepath.Join(tmpDir, "pin")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if _, _, _, err := child(ivoryExp, "-outdir", dir, "all"); err != nil {
		return err
	}
	if p.Reproduce, err = csvDigests(dir); err != nil {
		return err
	}
	b, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(pinsPath, append(b, '\n'), 0o644)
}
