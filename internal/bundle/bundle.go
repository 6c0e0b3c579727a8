// Package bundle reads and writes portable evidence bundles: the root
// certificate, all party certificates, and per-party evidence logs. A
// bundle is what an organisation hands to an adjudicator in a dispute —
// everything needed to verify evidence offline, with no live parties and
// no private keys.
package bundle

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nonrep/internal/clock"
	"nonrep/internal/credential"
	"nonrep/internal/id"
	"nonrep/internal/store"
)

// Bundle is an offline evidence package.
type Bundle struct {
	// CA is the domain root certificate.
	CA *credential.Certificate
	// Certs are the party certificates.
	Certs []*credential.Certificate
	// Logs are per-party evidence records.
	Logs map[id.Party][]*store.Record
}

const (
	caFile    = "ca.cert.json"
	certsFile = "certs.json"
	// partiesFile maps each log file name to its party: sanitize is not
	// reversible, and a log need not name its owner.
	partiesFile = "parties.json"
	logsDir     = "logs"
)

// sanitize maps a party URI to a file name.
func sanitize(p id.Party) string {
	r := strings.NewReplacer(":", "_", "/", "_")
	return r.Replace(string(p)) + ".jsonl"
}

// Write stores a bundle under dir.
func Write(dir string, b *Bundle) error {
	if err := os.MkdirAll(filepath.Join(dir, logsDir), 0o755); err != nil {
		return fmt.Errorf("bundle: create %s: %w", dir, err)
	}
	caData, err := json.MarshalIndent(b.CA, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, caFile), caData, 0o644); err != nil {
		return err
	}
	certData, err := json.MarshalIndent(b.Certs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, certsFile), certData, 0o644); err != nil {
		return err
	}
	parties := make(map[string]id.Party, len(b.Logs))
	for party, records := range b.Logs {
		name := sanitize(party)
		if other, taken := parties[name]; taken {
			return fmt.Errorf("bundle: parties %s and %s share log file %s", other, party, name)
		}
		parties[name] = party
		f, err := os.Create(filepath.Join(dir, logsDir, name))
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		for _, rec := range records {
			line, err := json.Marshal(rec)
			if err != nil {
				f.Close()
				return err
			}
			if _, err := w.Write(append(line, '\n')); err != nil {
				f.Close()
				return err
			}
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	partyData, err := json.MarshalIndent(parties, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, partiesFile), partyData, 0o644)
}

// Read loads a bundle from dir.
func Read(dir string) (*Bundle, error) {
	b := &Bundle{Logs: make(map[id.Party][]*store.Record)}
	caData, err := os.ReadFile(filepath.Join(dir, caFile))
	if err != nil {
		return nil, fmt.Errorf("bundle: read root certificate: %w", err)
	}
	if err := json.Unmarshal(caData, &b.CA); err != nil {
		return nil, fmt.Errorf("bundle: parse root certificate: %w", err)
	}
	certData, err := os.ReadFile(filepath.Join(dir, certsFile))
	if err != nil {
		return nil, fmt.Errorf("bundle: read certificates: %w", err)
	}
	if err := json.Unmarshal(certData, &b.Certs); err != nil {
		return nil, fmt.Errorf("bundle: parse certificates: %w", err)
	}
	// Bundles written before the party index existed have none; their
	// logs' parties are inferred from content.
	var parties map[string]id.Party
	if data, err := os.ReadFile(filepath.Join(dir, partiesFile)); err == nil {
		if err := json.Unmarshal(data, &parties); err != nil {
			return nil, fmt.Errorf("bundle: parse party index: %w", err)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("bundle: read party index: %w", err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, logsDir))
	if err != nil {
		return nil, fmt.Errorf("bundle: read logs: %w", err)
	}
	for _, entry := range entries {
		name := entry.Name()
		if entry.IsDir() || !strings.HasSuffix(name, ".jsonl") {
			continue
		}
		records, err := readLog(filepath.Join(dir, logsDir, name))
		if err != nil {
			return nil, err
		}
		party, ok := parties[name]
		if !ok {
			party = logOwner(name, records)
		}
		b.Logs[party] = records
	}
	return b, nil
}

// logOwner infers whose log the file name holds when no party index names
// it: the issuer of its first generated record, else the recipient of a
// received record whose log file this is, else the file name itself.
func logOwner(name string, records []*store.Record) id.Party {
	for _, rec := range records {
		if rec.Direction == store.Generated && rec.Token != nil {
			return rec.Token.Issuer
		}
	}
	for _, rec := range records {
		if rec.Token == nil {
			continue
		}
		for _, p := range rec.Token.Recipients {
			if sanitize(p) == name {
				return p
			}
		}
	}
	return id.Party(strings.TrimSuffix(name, ".jsonl"))
}

// readLog loads one evidence log file.
func readLog(path string) ([]*store.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var records []*store.Record
	scanner := bufio.NewScanner(f)
	scanner.Buffer(make([]byte, 0, 1024*1024), 16*1024*1024)
	for scanner.Scan() {
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec store.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("bundle: corrupt log %s: %w", path, err)
		}
		records = append(records, &rec)
	}
	return records, scanner.Err()
}

// CredentialStore builds a credential store trusting the bundle's root and
// holding all its certificates.
func (b *Bundle) CredentialStore(clk clock.Clock) (*credential.Store, error) {
	creds := credential.NewStore(clk)
	if err := creds.AddRoot(b.CA); err != nil {
		return nil, err
	}
	for _, cert := range b.Certs {
		if err := creds.Add(cert); err != nil {
			return nil, err
		}
	}
	return creds, nil
}
